(** The global controller (§4.2.2) and heartbeat failure detector.

    A daemon on node 0 (where the program was launched) that periodically
    pings every server for CPU and memory usage and rebalances load by
    ordering thread migrations:

    - memory pressure (> 90 % heap usage): migrate the thread consuming
      the most local heap until the pressure resolves;
    - compute congestion (> 90 % CPU utilization): migrate the thread with
      the most remote accesses to the server it accesses most — or, if
      that server is itself overloaded, to a vacant one.

    The probe loop doubles as the failure detector: each probe is bounded
    by [probe_timeout], and [miss_threshold] consecutive misses declare
    the node dead.  With a {!Drust_runtime.Replication} manager attached,
    the verdict automatically triggers backup promotion — the application
    never calls [fail_and_promote] itself. *)

module Ctx = Drust_machine.Ctx

type t

val start :
  ?probe_interval:float ->
  ?mem_threshold:float ->
  ?cpu_threshold:float ->
  ?probe_timeout:float ->
  ?miss_threshold:int ->
  ?grace:float ->
  ?replication:Replication.t ->
  ?membership:Membership.t ->
  Drust_machine.Cluster.t ->
  t
(** Spawns the probing daemon (default interval 1 ms of virtual time).
    Each remote probe is bounded by [probe_timeout] (default 200 µs —
    comfortably above a healthy probe's ~10 µs round trip);
    [miss_threshold] consecutive misses (default 3) {e and} at least
    [grace] seconds of silence since the node's last good probe declare
    the node dead.  [grace] defaults to
    [(miss_threshold + 1) × (probe_interval + probe_timeout)]: a
    transient partition shorter than [miss_threshold × probe_interval]
    can stack enough timeouts to reach the miss count while the total
    silence is still at most [miss_threshold × (interval + timeout)],
    so the one-round-larger grace floor keeps such blips from
    triggering a false-positive promotion at the cost of under one
    probe round of added real-crash detection latency.  Pass [replication]
    to have the verdict drive backup promotion, and [membership] to have
    it bump + announce the membership epoch before promotion (stale-view
    verbs are then rejected instead of answered by the inheritor). *)

val stop : t -> unit
(** The daemon exits at its next wakeup; required for the event queue to
    drain. *)

val migrations_ordered : t -> int
(** Thread migrations ordered so far ([controller.migrations] in the
    cluster's metrics registry, alongside [controller.probes],
    [controller.failovers] and [controller.heartbeat_misses]). *)

val probes_performed : t -> int

val deaths : t -> (int * float) list
(** Nodes the detector has declared dead, with the virtual time of each
    verdict, in declaration order.  Detection latency is this time minus
    the injected crash time.  The log is bounded (the newest
    [max 16 (2 × nodes)] verdicts are kept), so long churn runs cannot
    grow it without bound. *)

val set_on_death : t -> (int -> unit) -> unit
(** Callback invoked (from the controller's process, after promotion)
    each time a node is declared dead. *)
