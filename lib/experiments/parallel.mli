(** Deterministic parallel sweep runner for independent experiment
    configurations.

    A simulated cluster is single-domain by construction (see
    docs/SIMULATOR.md), but {e distinct} clusters share no mutable state
    — all per-cluster tables live in [Drust_machine.Env] — so a sweep
    over configurations can fan out across a fixed pool of domains.

    Determinism contract: results are returned in submission order, and
    each job must confine its side effects to its own cluster (no
    printing, no shared mutable state beyond the mutex-protected
    collectors in {!Report} and {!Bench_setup}).  Under that contract
    the output of a sweep is byte-identical for every [jobs] value. *)

val set_default_jobs : int -> unit
(** Set the pool size used when [?jobs] is omitted (the [--jobs N]
    flag).  Raises [Invalid_argument] if [n < 1].  Default 1. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** Run the thunks on [min jobs (length thunks)] domains (the calling
    domain participates; [jobs <= 1] runs everything inline, in order)
    and return their results in submission order.  If any thunk raises,
    the exception of the {e earliest-submitted} failing thunk is
    re-raised after all thunks finish. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] = [run ~jobs (List.map (fun x () -> f x) xs)]. *)
