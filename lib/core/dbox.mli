(** Typed DRust pointers — the public programming model.

    ['a Dbox.t] is the reproduction of the paper's [DBox<T>] (the
    re-implemented [Box]); {!Imm.r} corresponds to [Ref<T>] (the
    re-implemented [&T]) and a {!with_borrow_mut} scope to [MutRef<T>]
    ([&mut T]), so no mutable reference outlives its write.  All
    coherence behaviour comes from {!Protocol}; this layer adds type
    safety through {!Drust_util.Univ} tags.  [examples/quickstart.ml]
    and [examples/linked_list.ml] run every entry point.

    Object sizes: the heap stores simulated payloads, so every allocation
    declares the byte size the real object would occupy — that size drives
    transfer costs. *)

module Ctx = Drust_machine.Ctx

type 'a t

val make : Ctx.t -> tag:'a Drust_util.Univ.tag -> size:int -> 'a -> 'a t
(** [Box::new]: allocate on the global heap (local partition preferred). *)

val make_on :
  Ctx.t -> node:int -> tag:'a Drust_util.Univ.tag -> size:int -> 'a -> 'a t

val read : Ctx.t -> 'a t -> 'a
(** Owner read (immutable access through the box). *)

val owner : 'a t -> Protocol.owner
(** Escape hatch to the protocol object (used by [spawn_to]). *)

val gaddr : 'a t -> Drust_memory.Gaddr.t

val drop : Ctx.t -> 'a t -> unit

(** Immutable references: a reference may cross to another thread, and
    dereferencing it there fetches (and caches) the object. *)
module Imm : sig
  type 'a r

  val borrow : Ctx.t -> 'a t -> 'a r

  val clone : Ctx.t -> 'a r -> 'a r
  (** Another reference to the same borrow (copying a [&T]). *)

  val deref : Ctx.t -> 'a r -> 'a
  val drop : Ctx.t -> 'a r -> unit
end

val with_borrow_mut : Ctx.t -> 'a t -> ('a -> 'a * 'b) -> 'b
(** Scoped mutable borrow: return the new value and a result. *)

(** Affinity pointers (TBox). *)
module Tbox : sig
  val tie : Ctx.t -> parent:'a t -> child:'b t -> unit
  (** Drop-in affinity: the child co-locates with (and travels with) the
      parent from now on. *)
end
