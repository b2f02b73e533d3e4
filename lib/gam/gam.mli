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

val create : Drust_machine.Cluster.t -> t
(** A 6 MiB budget bounds each node's cache of remote data (simulator
    scale, mirroring GAM's small default cache relative to its working
    sets); LRU objects beyond it are dropped and re-fetched on the next
    access. *)

type handle

val alloc_on : t -> Ctx.t -> node:int -> size:int -> Drust_util.Univ.t -> handle

val read : t -> Ctx.t -> handle -> Drust_util.Univ.t
(** Acquire Shared on every block of the object, then read. *)

(** {1 Statistics} *)

val read_misses : t -> int
val write_misses : t -> int
val invalidations_sent : t -> int

(** {1 As a DSM backend} *)

val backend : t -> Drust_dsm.Dsm.t
