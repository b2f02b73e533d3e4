(** Elastic membership: epoch-stamped views and live join/leave with
    safe heap-range handoff (ROADMAP item 1).

    The paper's deployment is a fixed ring whose only membership change
    is a crash followed by backup promotion (§4.2.3).  This subsystem
    adds {e planned} membership changes on top of the same machinery:

    - an epoch-stamped view (per-node [Active] / [Standby] / [Failed]
      state) owned by the controller; every committed handoff and every
      failover bumps the epoch and asynchronously announces it;
    - a two-phase handoff (prepare → drain → copy → commit → reseed)
      that moves one home range between live servers through the same
      range-swap + cache-purge step as [Replication.fail_and_promote]
      ([Cluster.promote]);
    - fabric-level stale-view rejection: clients stamp verbs with
      {!known_epoch}; a verb carrying an epoch older than the live view
      raises [Fabric.Stale_epoch], which [Fabric.retry_with_backoff]
      retries after the announcement has landed.

    A crash during drain or copy aborts the handoff without touching the
    serving map, so the heartbeat detector's ordinary promotion path
    recovers the range — the fallback DSan's [dsan.handoff_atomicity]
    invariant checks.  The moved image is snapshotted atomically at
    commit time, so writes landing during the bulk copy are never lost.

    Counters land in the cluster registry under [membership.*]
    ([membership.joins], [membership.leaves],
    [membership.handoff_commits], [membership.handoff_aborts],
    [membership.view_changes]). *)

module Ctx = Drust_machine.Ctx

type t

val create : ?active:int -> Drust_machine.Cluster.t -> replication:Replication.t -> t
(** Build a view over the cluster: nodes [0 .. active-1] start
    [Active], the rest [Standby] (default: all active).  Installs the
    fabric's epoch source, so epoch-stamped verbs are validated from now
    on.  The cluster's node count is the membership {e capacity}; joins
    activate standbys rather than growing the array. *)

val epoch : t -> int
(** The live view epoch (starts at 0, bumped by every join, leave,
    committed handoff, and failover). *)

val known_epoch : t -> node:int -> int
(** The epoch [node] has been told about — what its clients should stamp
    verbs with.  Lags {!epoch} by the announcement latency; the gap is
    exactly the window in which that node's verbs are NAKed and
    retried. *)

val in_flight_handoff : t -> (int * int * int) option
(** [(home, from_node, to_node)] of the handoff currently between
    prepare and commit/abort, if any — what a churn driver polls to time
    a mid-handoff crash injection. *)

type handoff_error =
  [ `Refused of string  (** preconditions failed; nothing changed *)
  | `Aborted of string  (** a crash interrupted drain/copy; the serving
                            map is untouched and failover recovers *) ]

(** {!join} and {!leave} move a range by one handoff: drain pending
    write-backs, charge the bulk copy as chunked WRITEs (each chunk a
    fault-injection point), then atomically snapshot the store, swap the
    serving map, purge every alive cache of the range, bump the epoch,
    announce, and re-seed the replica chain. *)

val join : Ctx.t -> t -> node:int -> (int option, handoff_error) result
(** Activate a standby node and rebalance one home range onto it from
    the most-loaded member ([Ok (Some home)]), or [Ok None] when no
    member serves anything worth moving.  A failed seed handoff rolls
    the activation back. *)

val leave : Ctx.t -> t -> node:int -> (int list, handoff_error) result
(** Graceful departure: drain pending write-backs, hand every range the
    node serves to the least-loaded remaining member (re-chosen per
    range), then return the node to [Standby].  Returns the moved homes.
    Refused when no other active member could inherit. *)

val node_failed : Ctx.t -> t -> node:int -> unit
(** The controller's failure verdict: mark the node [Failed] and bump +
    announce the epoch.  Called by [Controller] before promotion so
    in-flight verbs routed under the old view are rejected rather than
    answered by whoever inherits the dead ranges. *)

