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
    by a timeout, and consecutive misses declare the node dead.  With a {!Drust_runtime.Replication} manager attached,
    the verdict automatically triggers backup promotion — the application
    never calls [fail_and_promote] itself. *)

module Ctx = Drust_machine.Ctx

type t

val start :
  ?replication:Replication.t ->
  ?membership:Membership.t ->
  Drust_machine.Cluster.t ->
  t
(** Spawns the probing daemon, which probes every 0.5 ms of virtual
    time.  Each remote probe is bounded by a 200 µs timeout (comfortably
    above a healthy probe's ~10 µs round trip); 3 consecutive misses
    {e and} a grace of at least (3 + 1) × (0.5 ms + 200 µs) = 2.8 ms of
    silence since the node's last good probe declare the node dead.  A
    transient partition shorter than 3 × 0.5 ms can stack enough
    timeouts to reach the miss count while the total silence is still at
    most 3 × (0.5 ms + 200 µs), so the one-round-larger grace floor
    keeps such blips from triggering a false-positive promotion at the
    cost of under one probe round of added real-crash detection latency.
    The rebalancing policy acts on a node above 90 % heap usage or 90 %
    CPU utilization.  Pass [replication] to have the verdict drive
    backup promotion, and [membership] to have it bump + announce the
    membership epoch before promotion (stale-view verbs are then
    rejected instead of answered by the inheritor). *)

val stop : t -> unit
(** The daemon exits at its next wakeup; required for the event queue to
    drain. *)

val migrations_ordered : t -> int
(** Thread migrations ordered so far ([controller.migrations] in the
    cluster's metrics registry, alongside [controller.probes],
    [controller.failovers] and [controller.heartbeat_misses]). *)

val deaths : t -> (int * float) list
(** Nodes the detector has declared dead, with the virtual time of each
    verdict, in declaration order.  Detection latency is this time minus
    the injected crash time.  The log is bounded (the newest
    [max 16 (2 × nodes)] verdicts are kept), so long churn runs cannot
    grow it without bound. *)

val set_on_death : t -> (int -> unit) -> unit
(** Callback invoked (from the controller's process, after promotion)
    each time a node is declared dead. *)
