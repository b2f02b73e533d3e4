(** Deterministic fault injection.

    A fault plan is a declarative schedule of node crashes, transient
    network partitions, and per-link impairments (drop probability, extra
    latency, jitter).  The plan is evaluated {e lazily}: the fabric asks
    "is this message deliverable {e now}?" on every verb, against the
    engine's virtual clock.  All randomness (drop coins, jitter samples)
    flows through the plan's own seeded {!Drust_util.Rng} stream, so a
    chaos run is a pure function of its configuration — two runs with the
    same seed are bit-identical. *)

type t

val create :
  engine:Engine.t ->
  rng:Drust_util.Rng.t ->
  flight:Drust_obs.Flight.t ->
  nodes:int ->
  t
(** An empty plan (no faults).  Every injection call below is echoed
    into [flight] (the cluster's recorder) on node 0's ring, stamped
    with the fault's declared time: a crash as [fault_crash] (a = node),
    a partition as [fault_partition] (a = first group member, b = group
    size), a link impairment as [fault_degrade] at time 0 (a = from,
    b = target, c = drop probability in thousandths). *)

(** {1 Injecting faults} *)

val crash_at : t -> node:int -> at:float -> unit
(** The node fail-stops at virtual time [at]: verbs from it or to it
    raise, and it never comes back. *)

val partition_at : t -> group:int list -> at:float -> heal_at:float -> unit
(** During [[at, heal_at)], messages between [group] and the rest of the
    cluster are blackholed (they never complete — bound them with
    [Fabric.rpc_with_timeout]).  Traffic within either side is
    unaffected. *)


val degrade_link :
  t ->
  from:int ->
  target:int ->
  ?drop:float ->
  ?extra_latency:float ->
  ?jitter:float ->
  unit ->
  unit
(** Impair the directed link [from → target]: each message is lost with
    probability [drop]; delivered messages gain [extra_latency] plus a
    uniform sample from [[0, jitter]] seconds. *)

(** {1 Queries (used by the fabric)} *)

val is_down : t -> int -> bool
(** The node's crash time has come.  Allocation-free. *)

val severed : t -> from:int -> target:int -> bool
(** An active partition separates the two nodes right now.
    Allocation-free. *)

val drops : t -> from:int -> target:int -> bool
(** Flip the seeded drop coin for one message on this link.  Stateful:
    advances the plan's RNG stream. *)

val extra_latency : t -> from:int -> target:int -> float
(** Extra one-way latency for one message (samples jitter; stateful). *)

val nak_delay : float
(** The simulated transport retry period (15 µs) a verb burns before
    completing in error against a crashed node. *)
