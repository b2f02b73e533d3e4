(** Shared scaffolding for the evaluation applications.

    Each application exposes [run ~cluster ~backend config -> result];
    this module provides the common pieces: running the main process on
    node 0 ({!Drust_machine.Ctx.run_main}) and measuring its elapsed
    virtual time, a per-node pool of workers draining task queues, and a
    generic opaque payload for objects whose content the simulation never
    inspects. *)

module Ctx = Drust_machine.Ctx

type result = {
  ops : float;  (** application-defined operation count *)
  elapsed : float;  (** virtual seconds from workload start to finish *)
  throughput : float;  (** ops / elapsed *)
  extra : (string * float) list;  (** app-specific diagnostics *)
}

val run_main :
  Drust_machine.Cluster.t -> (Ctx.t -> float * (string * float) list) -> result
(** [run_main cluster body] spawns [body] as the program's main thread on
    node 0, drives the engine until all events drain, and reports [body]'s
    returned op count with elapsed = the body's virtual execution span.
    The setup the body performs before calling {!start_measurement} is
    excluded from [elapsed]. *)

val start_measurement : Ctx.t -> unit
(** Mark the end of setup: elapsed time is measured from here. *)

val spawn_workers :
  Ctx.t -> int list array -> (Ctx.t -> int -> unit) ->
  Drust_runtime.Dthread.handle list
(** [spawn_workers ctx queues task] spawns one worker per core on each
    node [n] of [queues], node by node; the workers on [n] share
    [queues.(n)], each popping task ids off its head and running
    [task wctx id] until it is empty.  The workers come back unjoined,
    so the caller can join other threads first. *)

val blob : Drust_util.Univ.t
(** An opaque payload for objects whose bytes are never interpreted. *)

val payload_of_int : int -> Drust_util.Univ.t
val int_of_payload : Drust_util.Univ.t -> int
(** Small integer payloads for correctness-checking app state.
    @raise Drust_util.Univ.Type_mismatch on a non-integer payload. *)
