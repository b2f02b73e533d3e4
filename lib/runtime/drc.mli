(** Single-thread reference-counted ownership sharing (Rust's [Rc]).

    The paper notes that [Rc] "does not require special treatment" because
    it only shares ownership inside one thread (§4.1.2): the count needs
    no atomics and the handles can never be replicated across servers.
    This module enforces that property dynamically — cloning or dropping
    from a different thread raises {!Cross_thread}. *)

module Ctx = Drust_machine.Ctx

type t

exception Cross_thread of { created_by : int; used_by : int }

val create : Ctx.t -> size:int -> Drust_util.Univ.t -> t
val clone : Ctx.t -> t -> t
val get : Ctx.t -> t -> Drust_util.Univ.t
val strong_count : t -> int

val drop : Ctx.t -> t -> unit
(** Last drop frees the payload.  Like [Darc], every refcount transition
    is emitted to [Cluster.tap] as a [Tap.Rc_*] event. *)
