(** Dereference-latency model for the Table 2 microbenchmark.

    The paper measures the cost of dereferencing an 8-byte local object
    that is not in the CPU cache: ordinary Rust [Box] costs 364 cycles on
    average (median 332, P90 496); DRust's checked pointer adds ~30 cycles.
    This module models that distribution — a fast path with gaussian
    jitter plus an exponential slow tail for TLB/DRAM misses — and lets
    the benchmark regenerate the table from samples. *)

type sample_kind = Plain_box | Drust_box

val collect : Drust_util.Rng.t -> sample_kind -> n:int -> Drust_util.Stats.t
(** [n] samples as a statistics collection. *)

val check_overhead_cycles : float
(** The constant runtime-check cost DRust adds on the local fast path. *)
