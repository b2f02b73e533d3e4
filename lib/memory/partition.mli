(** One node's heap partition.

    Stores the objects whose global addresses fall in this node's range and
    implements the allocator the DRust runtime exposes (§4.2.1): size-class
    free lists over a bump region, biased toward local allocation.  The
    partition also tracks live bytes so the runtime can detect memory
    pressure (> 90 % usage triggers the controller's migration policy). *)

type t

type entry = {
  mutable value : Drust_util.Univ.t;
      (** updated in place on {!set} — callers that need a snapshot must
          read it out immediately *)
  size : int;  (** payload bytes, used for transfer-cost accounting *)
}

val create : node:int -> capacity_bytes:int -> t

val node : t -> int
val capacity_bytes : t -> int
val used_bytes : t -> int

val usage_fraction : t -> float
(** [used/capacity] — the controller's memory-pressure signal. *)

exception Out_of_memory of { node : int; requested : int }

val alloc : t -> size:int -> Drust_util.Univ.t -> Gaddr.t
(** [alloc t ~size v] stores [v], returning a fresh color-0 global address
    in this partition.  Raises {!Out_of_memory} when the partition cannot
    hold [size] more bytes. *)

val free : t -> Gaddr.t -> unit
(** Releases the object.  Raises [Invalid_argument] on a foreign or dead
    address (the color field is ignored). *)

val get : t -> Gaddr.t -> entry
(** Raises [Not_found] for a dead or never-allocated address. *)

val mem : t -> Gaddr.t -> bool

val set : t -> Gaddr.t -> Drust_util.Univ.t -> unit
(** In-place update (the object keeps its address and size class). *)

val put : t -> Gaddr.t -> size:int -> Drust_util.Univ.t -> unit
(** Upsert at an exact offset, used by the replication manager to mirror a
    primary partition into its backup: the backup must hold objects at the
    same addresses the primary minted. *)

val iter : t -> (Gaddr.t -> entry -> unit) -> unit
(** Iterate live objects — used by the replication manager to snapshot a
    partition for a new backup. *)
