module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Gaddr = Drust_memory.Gaddr
module Tap = Drust_memory.Tap

type control = {
  g : Gaddr.t;
  size : int;
  owner_thread : int;
  mutable count : int;
  mutable freed : bool;
}

type t = { control : control; mutable live : bool }

exception Cross_thread of { created_by : int; used_by : int }

let check_thread ctx c =
  if ctx.Ctx.thread_id <> c.owner_thread then
    raise
      (Cross_thread { created_by = c.owner_thread; used_by = ctx.Ctx.thread_id })

let check_live t op =
  if not t.live || t.control.freed then
    invalid_arg (Printf.sprintf "Drc.%s: handle dropped" op)

(* Refcount transitions go to the cluster's tap in [Darc]'s vocabulary. *)

let create ctx ~size v =
  Ctx.charge_cycles ctx 60.0;
  let g = Cluster.heap_alloc (Ctx.cluster ctx) ~node:ctx.Ctx.node ~size v in
  (match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Tap.Rc_created { g; size; count = 1 }));
  {
    control =
      { g; size; owner_thread = ctx.Ctx.thread_id; count = 1; freed = false };
    live = true;
  }

let clone ctx t =
  check_live t "clone";
  check_thread ctx t.control;
  (* Plain (non-atomic) increment: single-thread by construction. *)
  Ctx.charge_cycles ctx 6.0;
  t.control.count <- t.control.count + 1;
  (match Ctx.tap ctx with
  | None -> ()
  | Some f ->
      Ctx.emit ctx f
        (Tap.Rc_retained { g = t.control.g; count = t.control.count }));
  { control = t.control; live = true }

let get ctx t =
  check_live t "get";
  check_thread ctx t.control;
  Ctx.charge_cycles ctx 364.0;
  (Cluster.heap_read (Ctx.cluster ctx) t.control.g).Drust_memory.Partition.value

let strong_count t = t.control.count

let drop ctx t =
  check_live t "drop";
  check_thread ctx t.control;
  t.live <- false;
  t.control.count <- t.control.count - 1;
  Ctx.charge_cycles ctx 8.0;
  (match Ctx.tap ctx with
  | None -> ()
  | Some f ->
      Ctx.emit ctx f
        (Tap.Rc_released { g = t.control.g; count = t.control.count }));
  if t.control.count = 0 then begin
    t.control.freed <- true;
    Cluster.heap_free (Ctx.cluster ctx) t.control.g;
    match Ctx.tap ctx with
    | None -> ()
    | Some f -> Ctx.emit ctx f (Tap.Rc_freed { g = t.control.g })
  end
