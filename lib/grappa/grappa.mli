(** Grappa baseline (Nelson et al., ATC'15) re-implemented on the
    simulated fabric.

    Grappa's programming model is {e always-delegation}: every access to
    shared memory ships a function to the data's home core and executes it
    there; nothing is ever cached remotely.  Messages are batched by an
    aggregator to amortize network overhead, which adds latency.  Under
    skewed load the home cores of popular objects become the bottleneck —
    the delegation queue is explicit here, so that behaviour emerges
    naturally (the paper's KV-store and DataFrame results). *)

module Ctx = Drust_machine.Ctx

type t

val create : Drust_machine.Cluster.t -> t

type handle

val alloc : t -> Ctx.t -> size:int -> Drust_util.Univ.t -> handle
val alloc_on : t -> Ctx.t -> node:int -> size:int -> Drust_util.Univ.t -> handle
val read : t -> Ctx.t -> handle -> Drust_util.Univ.t
val write : t -> Ctx.t -> handle -> Drust_util.Univ.t -> unit
val update : t -> Ctx.t -> handle -> (Drust_util.Univ.t -> Drust_util.Univ.t) -> unit
val free : t -> Ctx.t -> handle -> unit

val read_part : t -> Ctx.t -> handle -> bytes:int -> unit
(** Delegate a fragment read; never cached. *)

val process : t -> Ctx.t -> handle -> cycles:float -> Drust_util.Univ.t
(** Ship [cycles] of computation to the object's home core, serialized
    per object (Grappa's compute-to-data model). *)

val process_update :
  t -> Ctx.t -> handle -> cycles:float -> (Drust_util.Univ.t -> Drust_util.Univ.t) -> unit

val home : handle -> int

val delegations : t -> int

val backend : t -> Drust_dsm.Dsm.t
(** Mutexes are free on Grappa: delegations to the same object serialize
    at its home core by construction. *)
