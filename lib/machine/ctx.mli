(** Per-thread execution context.

    Every simulated application thread carries a [Ctx.t]: which node it is
    currently running on (mutable — threads migrate), its RNG stream, and
    the accounting the global controller's adaptive policies read (local
    heap consumption, per-node remote-access counts, §4.2.2).

    Compute is charged in {e cycles} and batched: small charges accumulate
    and are flushed as one core-occupying burst once they exceed the
    cluster's [flush_grain], or whenever the thread is about to block on
    the network.  This keeps simulations fast without losing CPU
    contention. *)

type cpu = { mutable pending_cycles : float }
(** Compute charged but not yet flushed.  A float-only record, so the
    field is stored unboxed and charging allocates nothing. *)

type t = {
  cluster : Cluster.t;
  thread_id : int;
  mutable node : int;
  rng : Drust_util.Rng.t;
  cpu : cpu;
  mutable local_alloc_bytes : int;
  remote_accesses : int array;  (** per-target-node counts *)
  mutable safe_point_hook : (t -> unit) option;
      (** invoked at flush points; the runtime installs migration here *)
  mutable current_span : Drust_obs.Span.span option;
      (** the protocol operation's root span while one is open on this
          thread — sub-spans (core waits, fabric verbs) parent under it;
          [None] outside an operation or when tracing is disabled *)
  mutable op_kind : int;
      (** scratch outcome kind for the operation in flight (an index into
          the protocol's op-kind table, e.g. [write_move]); set at the
          branch that decides the outcome, read back by the protocol's
          latency classifier; [-1] idle *)
  mutable layer_cache : exn;
      (** per-context memo slot for a higher layer: the protocol stashes
          its resolved per-cluster state here (encoded as an extensible-
          variant constructor, like [Env] keys) so hot operations skip
          the Env lookup; [Not_found] until first use *)
}

val make : Cluster.t -> node:int -> t
(** Fresh context with a unique thread id and a split RNG stream. *)

val cluster : t -> Cluster.t
val current_node : t -> Cluster.node
val engine : t -> Drust_sim.Engine.t
val fabric : t -> Drust_net.Fabric.t
val params : t -> Params.t

val tap : t -> Drust_memory.Tap.subscriber option
(** The cluster's observation subscriber.  Emitters match on it and
    build their event only under [Some]. *)

val emit : t -> Drust_memory.Tap.subscriber -> Drust_memory.Tap.event -> unit
(** [emit ctx f ev] hands [ev] to [f] with this context's node and
    thread. *)

val charge_cycles : t -> float -> unit
(** Accumulate compute; flushes automatically past the grain.  Raises
    [Invalid_argument] unless [cycles >= 0] (so NaN is rejected too). *)

val compute : t -> cycles:float -> unit
(** [charge_cycles] then flush — a synchronous compute burst.  Rejects
    the same [cycles] as [charge_cycles]. *)

val flush : t -> unit
(** Occupy a core on the current node for all pending cycles.  Runs the
    safe-point hook first (migration happens at flush boundaries, like the
    paper's cooperative scheduler).  When the cluster's tracer is
    enabled, the core wait and the compute burst are recorded as
    [cpu.queue] / [cpu.compute] sub-spans of [current_span]. *)

val safe_point : t -> unit
(** Run the safe-point hook without forcing a flush. *)

val note_remote_access : t -> target:int -> unit
val note_local_alloc : t -> bytes:int -> unit

val remote_access_total : t -> int
val hottest_remote_node : t -> int option
(** The node this thread reads/writes most — the migration target of the
    controller's CPU-congestion policy. *)
