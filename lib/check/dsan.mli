(** DSan: a shadow-state sanitizer for the DSM coherence protocol.

    In the spirit of ThreadSanitizer, [Dsan] keeps its own model of the
    whole distributed heap — one shadow record per global address
    tracking the owner node, the current color, the borrow automaton
    state, the set of nodes holding cached copies (keyed by the colored
    address each copy was fetched under), darc reference counts, and
    dmutex hold state — and replays every transition against it as the
    one subscriber of the cluster's observation tap ([Cluster.tap], the
    {!Drust_memory.Tap} event vocabulary).

    Any divergence between what the implementation did and what the
    paper's invariants permit produces a structured {!report} carrying
    the virtual time, node, thread, address, and a provenance trail of
    the recent events that led up to the violation.

    The checker is purely observational: it never touches the engine,
    any RNG, or heap state, so a sanitized run is bit-identical to an
    unsanitized one (asserted by [test/test_check.ml]).

    The invariant catalogue lives in docs/SANITIZER.md;
    [tools/check_docs.ml] cross-checks it against {!invariant_names}. *)

module Cluster = Drust_machine.Cluster

(** {1 Invariants} *)

(** The eleven checked invariant classes.  Their string names (below)
    are the stable identifiers used in reports, docs, and tests. *)
type invariant =
  | Single_owner  (** exactly one live owner per physical address *)
  | Stale_cache_read
      (** no read is ever served from a cached copy whose colored
          address is not the object's current colored address *)
  | Move_invalidation
      (** a write that changes a value in place must not leave cached
          copies reachable under the current color — moves and color
          bumps are what make prior copies unreachable *)
  | Refcount_sanity
      (** darc counts match the shadow count, never go negative,
          and are exactly zero at free time; cache-copy pin counts never
          underflow *)
  | Borrow_discipline
      (** no write or mutable borrow while immutably borrowed, no
          second mutable borrow, no unbalanced returns, no drop or
          transfer while borrowed *)
  | Lock_discipline
      (** a dmutex is granted to at most one thread at a time and only
          its holder may release it *)
  | Promotion_uniqueness
      (** failover promotes a range at most once, to an alive node,
          only when the previous server is dead — and leaves no stale
          copies of the promoted range in surviving caches *)
  | Use_after_free
      (** no operation on a dropped owner or freed refcounted cell *)
  | Epoch_monotonic
      (** the membership view epoch strictly increases across every
          view change and handoff commit *)
  | Handoff_atomicity
      (** a range handoff is prepare → commit/abort with matching
          endpoints, the serving swap is a single step (no window with
          zero or two servers), at most one handoff per range is in
          flight, and no alive cache keeps a copy of the moved range *)
  | Replica_chain_intact
      (** after rebalancing, a range's replica chain is non-empty,
          duplicate-free, entirely on alive hosts, and never co-located
          with the range's server *)

val invariant_names : string list
(** All eleven names (["dsan.single_owner"], ["dsan.stale_cache_read"],
    ...), in declaration order; a report names its invariant the same
    way. *)

(** {1 Reports} *)

type report = {
  invariant : invariant;
  time : float;  (** virtual time of the violating event *)
  node : int;
  thread : int;  (** [-1] when the event carries no thread identity *)
  addr : int option;  (** physical (color-cleared) address *)
  detail : string;
  provenance : string list;
      (** recent shadow history for the address, then the last six
          fabric verbs from the cluster's flight recorder, oldest first *)
}

val report_to_string : report -> string

(** {1 Lifecycle} *)

type t

val attach : Cluster.t -> t
(** Install the sanitizer on a cluster: subscribes to the cluster's tap
    (every protocol, cache, refcount, lock, replication and membership
    transition), seeds the serving/alive shadow from the cluster's
    current state, and registers the [dsan.violations] counter in the
    cluster's metrics registry.
    Attach before the workload runs; objects created earlier are simply
    not tracked.  Reports are collected, never raised: query them with
    {!violations}. *)

val detach : t -> unit
(** Empty the cluster's tap.  Reports remain queryable. *)

val violations : t -> report list
(** In detection order.  At most 1000 reports are retained; the
    [--sanitize] verdict counts the true total. *)

(** {2 Process-wide installation (the [--sanitize] flag)} *)

val install_global : unit -> unit
(** Arrange (via [Cluster.set_create_hook]) for every cluster created
    from now on to get a sanitizer attached automatically — this is how
    [bench/main.exe --sanitize] sanitizes experiments that build their
    clusters internally.  [bin/drust_sim.exe --sanitize] does not use
    it: each plan it runs attaches a local sanitizer through
    [Simplan.execute ~sanitize:true]. *)

val print_verdict :
  clean:out_channel -> clusters:int -> total:int -> string list -> int
(** The [--sanitize] epilogue of both CLIs: with [total = 0], print
    ["DSan: no invariant violations (N cluster(s) checked)"] on [clean];
    otherwise print every report line and the total on stderr.  Returns
    [total]; the CLIs exit 3 when it is positive. *)

val report_attached : clean:out_channel -> int
(** {!print_verdict} over the sanitizers {!install_global} attached. *)

(** {1 Observation}

    [attach] subscribes this to the cluster's tap; tests call it
    directly to inject corrupted event streams and assert that each
    invariant class is caught.  A pure state-machine step on the
    shadow. *)

val observe :
  t -> time:float -> node:int -> thread:int -> Drust_memory.Tap.event -> unit
