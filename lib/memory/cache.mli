(** Per-node read-only object cache (the paper's hashmap [H], §4.1.1).

    The "cache" is a virtual aggregation of local copies living in the
    regular heap: a hashmap from an object's {e colored} global address to
    the local copy and the count of live immutable references using it.
    Because the key includes the color, any write to the object (which
    either moves it or bumps its color) makes every stale entry
    unreachable — that is the protocol's implicit invalidation.

    Copies are owned by the references that pinned them: an entry may only
    be evicted once its reference count drops to zero, which the runtime
    does lazily under memory pressure. *)

type t

type copy = {
  key : Gaddr.t;  (** colored global address the copy was fetched under *)
  mutable value : Drust_util.Univ.t;
  size : int;
  mutable refcount : int;
  mutable dead : bool;  (** set on eviction/invalidation *)
  mutable detached : bool;
      (** no longer reachable from the map (displaced by a newer version
          or invalidated) but still pinned by live references *)
}

val create :
  ?metrics:Drust_obs.Metrics.t -> ?tap:Tap.t -> node:int -> unit -> t
(** [metrics] is the registry the [cache.*] statistics (hits, misses,
    inserts, evictions, used bytes — labelled by node) report into;
    defaults to a fresh private registry.  [tap] is the cluster's
    observation tap (default: a private, empty one): every cache
    transition is emitted there as a [Tap.Cache_*] event with thread
    [-1].  [retain] has no cache handle and is therefore not tapped; a
    checker audits refcounts at [Cache_release] time instead. *)

val node : t -> int
val entries : t -> int
val used_bytes : t -> int

val lookup : t -> Gaddr.t -> copy option
(** [lookup t g] finds a live copy cached under exactly the colored
    address [g]; a copy fetched under a stale color never matches. *)

val peek : t -> Gaddr.t -> copy option
(** {!lookup} for checkers: the same answer, but uncounted (no
    [cache.hits]/[cache.misses]) and silent on the tap, so auditing a
    cache never changes what a run reports. *)

val find : t -> Gaddr.t -> copy
(** [find] is {!lookup} without the option: the same counters and
    tap events, raising [Not_found] on a miss.  The protocol's read
    path uses it so a hit allocates nothing. *)

val insert : t -> Gaddr.t -> size:int -> Drust_util.Univ.t -> copy
(** [insert t g ~size v] records a fresh copy with refcount 1.  Any older
    copy cached under the same physical address (different color) is
    displaced from the map — live references keep reading it through their
    direct [copy] record, exactly like the paper's dangling-but-refcounted
    local copies. *)

val retain : copy -> unit
(** Increment the reference count ([Deref] cache hit, Alg. 4 line 10). *)

val release : t -> copy -> unit
(** Decrement the reference count ([DropRef], Alg. 4 line 20).  A displaced
    copy whose count drains to zero is reclaimed immediately.  Raises
    [Invalid_argument] below zero. *)

val invalidate_physical : t -> Gaddr.t -> unit
(** Remove whatever copy is cached under this physical address, regardless
    of color — the asynchronous invalidation performed when an object is
    deallocated or moved away (App. B.4), preventing a reallocation at the
    same address from hitting a stale entry. *)

val invalidate_home : t -> home:int -> int
(** Remove every copy whose object is homed in [home]'s address range,
    regardless of color; returns the number of copies dropped.  Failover
    promotion calls this on every surviving node: the promoted replica may
    lag the lost primary, so copies fetched from the primary must not keep
    serving reads (§4.2.3). *)

val evict_unreferenced : t -> int
(** Drop all refcount-0 entries; returns bytes reclaimed.  This is the
    lazy reclamation the runtime triggers under memory pressure. *)

val iter : t -> (copy -> unit) -> unit
val clear : t -> unit

(** {1 Statistics}

    Backed by the metrics registry ([cache.hits] / [cache.misses]);
    these accessors read the node's counters. *)

val hits : t -> int
val misses : t -> int
