(** The simulated cluster: nodes, fabric, and the partitioned global heap.

    One [Cluster.t] is the unit of an experiment.  Each node bundles its
    CPU cores (a FIFO resource), its heap partition, and its read-only
    object cache.  The cluster also carries the primary-serving map used by
    the fault-tolerance layer: after a failure, another node is promoted to
    serve a dead node's partition range (§4.2.3). *)

type node = {
  id : int;
  cores : Drust_sim.Resource.t;
  partition : Drust_memory.Partition.t;
  cache : Drust_memory.Cache.t;
  mutable alive : bool;
}

type t

val create : ?engine:Drust_sim.Engine.t -> Params.t -> t

val env : t -> Env.t
(** The cluster's environment: typed per-cluster storage for every higher
    layer (protocol state, thread registry, ...).
    Bindings die with the cluster.  See {!Env}. *)

val fresh_thread_id : t -> int
(** Next thread id, scoped to this cluster (ids start at 0 per cluster so
    runs are deterministic regardless of what other clusters exist in the
    process). *)

val set_create_hook : (t -> unit) option -> unit
(** Install a process-wide hook run on every cluster [create].  Used by
    the DSan sanitizer's [--sanitize] mode to attach to clusters that
    experiments build internally.  The hook must be purely observational:
    it must not touch the engine, any RNG, or heap state. *)

val engine : t -> Drust_sim.Engine.t
val fabric : t -> Drust_net.Fabric.t
val params : t -> Params.t
val rng : t -> Drust_util.Rng.t

(** {1 Observability}

    One metrics registry and one span tracer per cluster; the fabric,
    the caches, the protocol, and the controller all report into them
    (docs/OBSERVABILITY.md has the catalogue).  The tracer starts
    disabled — [Drust_obs.Span.enable (Cluster.spans c)] turns it on. *)

val metrics : t -> Drust_obs.Metrics.t
val spans : t -> Drust_obs.Span.t

val flight : t -> Drust_obs.Flight.t
(** The always-on flight recorder: every layer records compact events
    into its per-node rings, and failures dump them as
    [<label>.flight.json] for post-mortem forensics
    (docs/FORENSICS.md). *)

val tap : t -> Drust_memory.Tap.t
(** The observation tap: the one subscriber slot every layer (protocol,
    caches, refcounts, locks, replication, membership) emits its
    transitions to.  Empty unless the DSan sanitizer is attached. *)

val node_count : t -> int
val node : t -> int -> node
val nodes : t -> node array
val alive_nodes : t -> int list

(** {1 Partition serving (fault tolerance)} *)

val serving_node : t -> int -> int
(** [serving_node t home] is the node currently serving [home]'s partition
    range — [home] itself unless it failed and a backup was promoted. *)

val serving_store : t -> int -> Drust_memory.Partition.t
(** [serving_store t home] is the partition object currently backing
    [home]'s address range — [home]'s own partition, or whatever store a
    promotion / planned handoff installed.  The replication layer
    snapshots it when re-seeding a replica chain. *)

val promote : t -> home:int -> by:int -> store:Drust_memory.Partition.t -> unit
(** After [home] fails (or hands its range off), serve its address range
    from node [by] using [store] (which must mint addresses in [home]'s
    range), and purge every copy of the range from every alive node's
    cache (§4.2.3). *)

val mark_failed : t -> int -> unit

(** {1 Global-heap state operations}

    These mutate simulator state only; {e timing} is charged separately by
    the coherence protocols through the fabric. *)

val heap_alloc : t -> node:int -> size:int -> Drust_util.Univ.t -> Drust_memory.Gaddr.t
(** Allocate in a specific node's partition. *)

val heap_read : t -> Drust_memory.Gaddr.t -> Drust_memory.Partition.entry
(** Follows the serving map.  Raises [Not_found] on a dead address. *)

val heap_write : t -> Drust_memory.Gaddr.t -> Drust_util.Univ.t -> unit
val heap_free : t -> Drust_memory.Gaddr.t -> unit
val heap_mem : t -> Drust_memory.Gaddr.t -> bool

val most_vacant_node : t -> int
(** Allocation fallback under memory pressure (§4.2.1): the alive node
    with the lowest partition usage. *)

val transition : t -> node:int -> Drust_memory.Tap.event -> unit
(** [transition t ~node ev] reports a failover or membership transition
    ([View_change], [Handoff_*], [Chain_reseeded], [Node_failed],
    [Promoted]) acted on by [node]: its flight record on [node]'s ring,
    then the tap subscriber, if any, with no thread identity (thread
    -1).  This is where those kinds' flight field layout is decided.
    Raises [Invalid_argument] on any other event. *)

val run : t -> unit
(** Drive the engine until all events drain (delegates to [Engine.run]). *)

val now : t -> float
