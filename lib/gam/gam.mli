(** GAM baseline (Cai et al., VLDB'18) re-implemented on the simulated
    fabric.

    GAM keeps data coherent with a {e directory-based} protocol at
    cache-block granularity (512 B default): every block has a home node
    whose directory tracks which nodes hold it Shared or Exclusive.  A
    read miss asks the home (two-sided), which may downgrade a remote
    exclusive holder; a write asks the home for ownership, which
    invalidates every sharer.  All of that is software on the home node's
    directory engine — this is the 77 % coherence overhead of the paper's
    §3 motivation measurement, which the default cost constants reproduce
    (a 512 B uncached read costs ~16 µs of which only 3.6 µs is wire
    time).

    Objects are packed into blocks by a bump allocator, so small objects
    share blocks and suffer {e false sharing} — a fine-granularity penalty
    DRust's object-level protocol avoids. *)

module Ctx = Drust_machine.Ctx

type t

val create :
  ?block_size:int ->
  ?cache_budget:int ->
  Drust_machine.Cluster.t ->
  t
(** [cache_budget] bounds each node's cache of remote data (default
    6 MiB at simulator scale, mirroring GAM's small default cache
    relative to its working sets); LRU objects beyond it are dropped and
    re-fetched on the next access. *)

val block_size : t -> int

type handle

val alloc : t -> Ctx.t -> size:int -> Drust_util.Univ.t -> handle
val alloc_on : t -> Ctx.t -> node:int -> size:int -> Drust_util.Univ.t -> handle

val read : t -> Ctx.t -> handle -> Drust_util.Univ.t
(** Acquire Shared on every block of the object, then read. *)

val write : t -> Ctx.t -> handle -> Drust_util.Univ.t -> unit
(** Acquire Exclusive (invalidating sharers), then write. *)

val update : t -> Ctx.t -> handle -> (Drust_util.Univ.t -> Drust_util.Univ.t) -> unit

val free : t -> Ctx.t -> handle -> unit
val home : handle -> int

(** {1 Statistics} *)

val read_misses : t -> int
val write_misses : t -> int
val invalidations_sent : t -> int

(** {1 As a DSM backend} *)

val backend : t -> Drust_dsm.Dsm.t
