(** Per-cluster environment: typed heterogeneous storage for runtime
    state that is scoped to one cluster.

    Historically every layer above [Cluster] kept its per-cluster state
    (protocol statistics, listener hooks, thread registries, measurement
    marks, ...) in process-global [Hashtbl]s keyed by a cluster id.
    Those tables were never pruned — state outlived its cluster — and
    they made two clusters in different domains secretly share mutable
    process state, so independent simulations could not run in parallel.

    [Env] replaces that pattern.  A layer declares a typed {!key} once at
    module-initialization time and stores its state {e inside} the
    cluster via {!get}: the binding is created on first use, memoized for
    the cluster's lifetime, and collected with the cluster.  One cluster
    (and hence one [Env.t]) must only ever be touched from a single
    domain; distinct clusters are fully independent.

    The no-process-globals rule this module enforces is linted by
    DLint's [globals] pass (the [@lint] alias, docs/LINTS.md). *)

type 'a key
(** A typed slot identifier.  Keys are cheap; allocate them at module
    initialization, not per call. *)

val key : unit -> 'a key
(** [key ()] mints a fresh key; uniqueness comes from the key's
    identity.  Key allocation is atomic and may happen in any domain. *)

type t
(** One environment, owned by exactly one cluster. *)

val create : unit -> t

val get : t -> 'a key -> init:(unit -> 'a) -> 'a
(** [get t k ~init] returns the binding for [k], creating and memoizing
    it with [init ()] on first access.  This is the normal accessor:
    layers use it to materialize their per-cluster state lazily; it is
    the only accessor. *)
