(** Cluster-wide thread registry.

    The global controller's table of every live application thread
    (§4.2.2): where it runs, how much local heap it has allocated, how
    often it touches each remote node, and any pending migration order.
    The registry is also how [spawn] finds lightly-loaded nodes. *)

type record = {
  ctx : Drust_machine.Ctx.t;
  mutable running : bool;
  mutable migrate_to : int option;
  mutable migrations : int;
}

val register : Drust_machine.Ctx.t -> record
val unregister : record -> unit

val threads_on : Drust_machine.Cluster.t -> node:int -> record list

val order_migration : record -> target:int -> unit
(** Ask the thread to move at its next safe point. *)
