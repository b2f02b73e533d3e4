(** Distributed threading (§4.1.2).

    Mirrors Rust's [std::thread] interface: a spawn captures the body as
    a closure and runs it on a chosen server — [spawn_on] names the node,
    [spawn_to] (§4.1.3) places the thread next to the data it will
    touch.  Cross-server spawning ships only the closure and any captured
    pointers (not the heap objects) over a control message.

    Threads are cooperative: migration orders from the global controller
    take effect at safe points (compute-flush boundaries), mirroring the
    paper's non-preemptive scheduler. *)

module Ctx = Drust_machine.Ctx

type handle

val spawn_on : Ctx.t -> node:int -> (Ctx.t -> unit) -> handle
(** Explicit placement. *)

val spawn_to : Ctx.t -> Drust_core.Protocol.owner -> (Ctx.t -> unit) -> handle
(** The paper's [spawn_to]: run the thread on the server hosting the given
    object. *)

val join : Ctx.t -> handle -> unit
(** Blocks the caller until the thread finishes; re-raises its failure. *)

val join_all : Ctx.t -> handle list -> unit

(** {1 Scoped threads}

    The [thread::scope] utility the paper keeps compatible (§4.1.2):
    every thread spawned inside the scope is joined before [scope]
    returns, so scoped threads may safely borrow data whose lifetime
    outlives the scope. *)

type scope

val scope : Ctx.t -> (scope -> unit) -> unit
(** [scope ctx f] runs [f] and joins every thread spawned through the
    scope before returning — also on exception, in which case the
    original exception is re-raised after the joins. *)

val spawn_in : scope -> node:int -> (Ctx.t -> unit) -> handle
(** {!spawn_on} inside the scope. *)

val migrate_now : Ctx.t -> target:int -> float
(** Perform the migration protocol for the calling thread immediately:
    coordinate with the controller, ship the stack, update the thread
    table.  Returns the latency incurred (also advanced in virtual time).
    Used by the safe-point hook and by drill-down experiments. *)

val migration_latency_stats : Drust_machine.Cluster.t -> Drust_util.Stats.t
(** Latency samples of every migration performed on this cluster (the
    §7.3 drill-down reports their average). *)
