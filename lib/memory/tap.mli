(** The observation tap: one subscriber slot per cluster for every
    ownership and coherence transition.

    DRust's correctness rests on a small set of transitions — create,
    borrow, the path a dereference took, a colour bump or move, transfer
    and drop (§4.1) — plus the cache, refcount, lock, failover and
    membership steps built on them.  Each layer emits its transitions
    here as one closed {!event} vocabulary; the DSan sanitizer
    ([lib/check]) is the subscriber.

    [Cluster.create] builds one tap per cluster ([Cluster.tap]) and hands
    it to every node's cache.  An emitter reads {!t.sub} directly and
    builds its event only under [Some], so a run without a subscriber
    allocates nothing here.  A subscriber must never touch the engine or
    any RNG: subscribed runs stay bit-identical to unsubscribed ones. *)

(** {1 Events} *)

(** How a read was served: the local heap, a cache copy (carrying the
    colored key the copy was fetched under), or a fresh remote fetch. *)
type access_path = Path_local | Path_cache of Gaddr.t | Path_fetch

(** How a write epoch changed the colored address: [W_in_place] is a
    U-bit-elided write (same address), [W_bump] a color bump, [W_move] a
    relocation. *)
type write_kind = W_bump | W_move | W_in_place

type event =
  (* Protocol (lib/core).  Read events fire at the instant the access
     path is decided (a fetch's once the copy is in), write events right
     after the new colored address is published, so a shadow model is
     never separated from the real state by a scheduler yield. *)
  | Create of { g : Gaddr.t; size : int }
  | Read of { g : Gaddr.t; path : access_path }
  | Write of { before : Gaddr.t; after : Gaddr.t; size : int; kind : write_kind }
  | Borrow_imm of { g : Gaddr.t }
  | Return_imm of { g : Gaddr.t }
  | Borrow_mut of { g : Gaddr.t }
  | Return_mut of { g : Gaddr.t }
  | Transfer of { g : Gaddr.t; to_node : int }
  | Drop of { g : Gaddr.t }
  | App of { g : Gaddr.t; verb : string; tag : string }
      (** Application-level attribution from the typed [Dbox] layer: the
          [Univ] tag name and the access verb, for violation provenance. *)
  (* Per-node cache.  [Cache_release] fires before the underflow guard
     and carries the post-decrement count, so a checker observes an
     underflow the operation itself then rejects. *)
  | Cache_hit of { key : Gaddr.t }
  | Cache_stale_miss of { sought : Gaddr.t; cached : Gaddr.t }
      (** a lookup found a copy under the physical address whose colored
          key did not match — the implicit-invalidation path *)
  | Cache_insert of { key : Gaddr.t; size : int }
  | Cache_release of { key : Gaddr.t; refcount : int }
  | Cache_invalidate of { key : Gaddr.t }
      (** the copy left the map: displaced, invalidated, or evicted *)
  (* Darc, with the post-transition count as the implementation computed
     it. *)
  | Rc_created of { g : Gaddr.t; size : int; count : int }
  | Rc_retained of { g : Gaddr.t; count : int }
  | Rc_released of { g : Gaddr.t; count : int }
  | Rc_freed of { g : Gaddr.t }
  (* Dmutex.  [Lock_released] fires before the holder check, so a
     checker observes a foreign unlock the operation then rejects. *)
  | Lock_created of { g : Gaddr.t }
  | Lock_acquired of { g : Gaddr.t; thread : int }
  | Lock_released of { g : Gaddr.t; thread : int }
  (* Replication: [Node_failed] once per failure before any promotion,
     [Promoted] once per re-served range after the serving swap and the
     cache purge. *)
  | Node_failed of { node : int }
  | Promoted of { home : int; by : int; replica : int }
  (* Membership, in protocol order: prepare before the drain, commit
     (with the new epoch) after the atomic serving swap and purge, abort
     if a crash interrupted the copy, reseed after the replica chain is
     rebuilt, and [View_change] on every other epoch bump. *)
  | View_change of { epoch : int; reason : string }
  | Handoff_prepared of { home : int; from_node : int; to_node : int }
  | Handoff_committed of {
      home : int;
      from_node : int;
      to_node : int;
      epoch : int;
    }
  | Handoff_aborted of {
      home : int;
      from_node : int;
      to_node : int;
      reason : string;
    }
  | Chain_reseeded of { home : int; server : int; hosts : int list }

(** {1 The slot} *)

type subscriber = node:int -> thread:int -> event -> unit
(** Called synchronously with the acting node and thread.  [thread] is
    [-1] for events that carry no application thread: cache, failover
    and membership transitions. *)

type t = { mutable sub : subscriber option }

val create : unit -> t
(** An empty slot. *)

val set : t -> subscriber option -> unit
(** Install or remove the subscriber. *)
