(** The DRust ownership-guided coherence protocol (paper §4.1.1 and
    Appendix B, Algorithms 1–8), over untyped {!Drust_util.Univ.t} values.

    This module is the reproduction's core contribution.  It implements:

    - {b owners} (the paper's repurposed [Box]) with a colored global
      address, an extension field holding either a cached-copy pointer or
      the U bit, and a dynamic borrow automaton standing in for rustc;
    - {b immutable borrows}: remote reads copy the object into the
      per-node cache keyed by the {e colored} address and pin it with a
      reference count (Alg. 4);
    - {b mutable borrows}: remote writes {e move} the object into the
      writer's heap partition — changing its global address and thereby
      implicitly invalidating every stale cached copy — and write the new
      colored address back to the owner when dropped (Alg. 6);
    - {b pointer coloring}: local writes bump the 16-bit color instead of
      moving, with the U bit suppressing redundant bumps within a write
      epoch and a move-on-overflow fallback (Alg. 3/5);
    - {b affinity groups} ([TBox], §4.1.3): children tied to an owner are
      fetched/moved with it in one batched verb, and their dereferences
      skip the runtime location check;
    - {b ownership transfer} and {b deallocation} with the asynchronous
      cached-copy invalidation of Appendix B.4.

    Every operation takes a {!Drust_machine.Ctx.t} and charges simulated
    time: local dereference cycles, cache-hashmap cycles, and fabric verbs
    for remote traffic.  State mutations and cost charging are kept in
    lockstep so the protocol can be property-tested for the paper's
    data-value invariant while also driving the performance model. *)

module Ctx = Drust_machine.Ctx
module Gaddr = Drust_memory.Gaddr

type owner
type imm
type mut

(** {1 Owners} *)

val create : Ctx.t -> size:int -> Drust_util.Univ.t -> owner
(** Allocate in the global heap: the local partition when it has room,
    otherwise the most vacant server (§4.2.1).  The owner box lives with
    the calling thread. *)

val create_on : Ctx.t -> node:int -> size:int -> Drust_util.Univ.t -> owner
(** Explicit placement (used by workload setup code). *)

val gaddr : owner -> Gaddr.t
(** Current colored global address. *)

val size : owner -> int

val owner_read : Ctx.t -> owner -> Drust_util.Univ.t
(** Immutable access through the owner (Alg. 7): local objects are read in
    place; remote objects are copied into the node cache. *)

val owner_write : Ctx.t -> owner -> Drust_util.Univ.t -> unit
(** Mutable access through the owner (Alg. 8): local objects get a color
    bump (U-bit-elided); remote objects move into the local partition. *)

val owner_modify :
  Ctx.t -> owner -> (Drust_util.Univ.t -> Drust_util.Univ.t) -> unit
(** Read-modify-write through the owner under the same rules. *)

(** {1 Immutable borrows (Alg. 4)} *)

val borrow_imm : Ctx.t -> owner -> imm
(** Creates an immutable reference; resets the owner's U bit so the next
    post-borrow write is sure to change the colored address (App. B.4). *)

val clone_imm : Ctx.t -> imm -> imm
(** New reference from an existing one: only the colored global address is
    copied; the local-copy field starts null (App. D.2). *)

val imm_deref : Ctx.t -> imm -> Drust_util.Univ.t
(** Read: local → direct; remote → cache lookup by colored address, fetch
    on miss, pin with a refcount. *)

val drop_imm : Ctx.t -> imm -> unit
(** Unpins the cached copy and returns the borrow. *)

(** {1 Mutable borrows (Alg. 1/6)} *)

val borrow_mut : Ctx.t -> owner -> mut

val mut_read : Ctx.t -> mut -> Drust_util.Univ.t
(** Reads through a mutable reference; moves the object local first, since
    a mutable dereference always claims exclusive local access. *)

val mut_write : Ctx.t -> mut -> Drust_util.Univ.t -> unit
val mut_modify : Ctx.t -> mut -> (Drust_util.Univ.t -> Drust_util.Univ.t) -> unit

val drop_mut : Ctx.t -> mut -> unit
(** Writes the (possibly moved / recolored) global address back into the
    owner box — a synchronous 8-byte WRITE when the owner box lives on a
    different server. *)

(** {1 Ownership transfer and deallocation} *)

val transfer : Ctx.t -> owner -> to_node:int -> unit
(** Ship the owner box to another node (thread spawn / channel send):
    requires no outstanding borrows; evicts this node's cached copy
    (App. D.2) and re-homes the box.  Affinity children move along. *)

val drop_owner : Ctx.t -> owner -> unit
(** End of lifetime: frees the heap object (and affinity children),
    asynchronously invalidating cached copies cluster-wide (App. B.4). *)

(** {1 Affinity (TBox, §4.1.3)} *)

val tie : Ctx.t -> parent:owner -> child:owner -> unit
(** Tie [child] to [parent]: co-locate now and forever; fetches and moves
    of [parent] carry the whole group in one batched verb.  Raises
    [Invalid_argument] on cycles or if [child] is already tied. *)

val pin : Ctx.t -> owner -> unit
(** Pin the object to its current server (a TBox owned by a stack
    variable): it will never move; remote mutable access degrades to
    copy-and-write-back (App. D.1). *)

val is_pinned : owner -> bool
val group_size : owner -> int
(** Total bytes of the owner plus its transitive affinity children. *)

(** {1 Introspection for tests and stats} *)

(** {1 Ablation switches}

    Used by the design-choice ablation benchmarks; both default to off. *)

val set_always_move : Drust_machine.Cluster.t -> bool -> unit
(** Disable pointer coloring: every local write moves the object to a
    fresh local address (the naive variant §4.1.1 motivates against). *)

val set_no_ubit : Drust_machine.Cluster.t -> bool -> unit
(** Disable the U-bit elision: every write bumps the color even within an
    uninterrupted write epoch. *)

(** {1 Hooks for the fault-tolerance layer (§4.2.3)} *)

val set_commit_listener :
  Drust_machine.Cluster.t ->
  (Ctx.t -> Gaddr.t -> int -> Drust_util.Univ.t -> unit) option ->
  unit
(** Invoked after each committed write epoch (drop of a modified mutable
    borrow, or an owner write) with the object's current physical address,
    size and value.  The replication manager batches these into backup
    write-backs. *)

val set_transfer_listener :
  Drust_machine.Cluster.t -> (Ctx.t -> Gaddr.t -> unit) option -> unit
(** Invoked on ownership transfer — the point at which batched
    modifications must be flushed to the backup (§4.2.3). *)

(** {1 The observation tap}

    Every protocol transition is emitted to [Cluster.tap] as a
    [Drust_memory.Tap] event ([Create], [Read], [Write], borrows,
    [Transfer], [Drop], [App]), built only while a subscriber is
    installed. *)

val note_app : Ctx.t -> g:Gaddr.t -> verb:string -> tag:string -> unit
(** Emit an [App] attribution event (used by [Dbox]). *)

val color : owner -> int
val moves : Ctx.t -> int
(** Number of object moves performed through this context's cluster.
    Backed by the cluster metrics registry ([protocol.moves]). *)

val color_bumps : Ctx.t -> int
(** Writes resolved by a color bump alone ([protocol.color_bumps]). *)

val fetches : Ctx.t -> int
(** Remote fetches into a node cache ([protocol.fetches]). *)

val op_latency_buckets : float array
(** Upper bounds (seconds) of the always-on
    [protocol.op_latency{op=...}] histograms — finer than the registry
    default because local derefs cost tens of nanoseconds.  One
    histogram per protocol outcome, labelled with its
    [Flight.kind_names] entry (codes [Flight.k_read_local] ..
    [Flight.k_drop]): which access path a read took, how a write changed
    the colored address, or a transfer or drop.  All are registered the
    first time the protocol touches a cluster; latency is elapsed
    virtual time plus compute charged but not yet flushed, so
    measurement never perturbs a run. *)

val audit : Drust_machine.Cluster.t -> string list
(** Executable form of the Appendix C coherence proof: checks, for every
    live owner, that no node cache can serve a stale value under the
    owner's current colored address (Stale-Value-Elimination) and that
    owners reference live heap slots.  Returns violation descriptions;
    an empty list means the cluster is coherent.  Intended for tests and
    debugging — it scans every cache. *)
