module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Fabric = Drust_net.Fabric
module Gaddr = Drust_memory.Gaddr
module Cache = Drust_memory.Cache
module Tap = Drust_memory.Tap

(* Shared control block: one per allocation, shared by all handles. *)
type control = {
  g : Gaddr.t;
  size : int;
  mutable count : int;
  mutable freed : bool;
}

type t = { control : control; mutable live : bool }

(* Refcount transitions go to the cluster's tap ([Tap.Rc_*]) with the
   post-transition count as the implementation sees it, so a shadow
   counter can be cross-checked against it. *)

let create ctx ~size v =
  Ctx.charge_cycles ctx 150.0;
  let g = Cluster.heap_alloc (Ctx.cluster ctx) ~node:ctx.Ctx.node ~size v in
  (match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Tap.Rc_created { g; size; count = 1 }));
  { control = { g; size; count = 1; freed = false }; live = true }

let home t = Gaddr.node_of t.control.g

let check_live t op =
  if not t.live || t.control.freed then
    invalid_arg (Printf.sprintf "Darc.%s: handle dropped" op)

(* The fetch-and-add on the count, run where the control block lives;
   [adjust c 0] reads it.  The count after the add comes back. *)
let adjust control delta =
  control.count <- control.count + delta;
  control.count

let at_home ctx t delta =
  let target = Cluster.serving_node (Ctx.cluster ctx) (home t) in
  if target = ctx.Ctx.node then begin
    Ctx.charge_cycles ctx 25.0;
    adjust t.control delta
  end
  else begin
    Ctx.flush ctx;
    Fabric.rdma_atomic (Ctx.fabric ctx) ~from:ctx.Ctx.node ~target adjust
      t.control delta
  end

let clone ctx t =
  check_live t "clone";
  let count = at_home ctx t 1 in
  (match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Tap.Rc_retained { g = t.control.g; count }));
  { control = t.control; live = true }

let strong_count ctx t =
  check_live t "strong_count";
  at_home ctx t 0

let get ctx t =
  check_live t "get";
  let cluster = Ctx.cluster ctx in
  let target = Cluster.serving_node cluster (home t) in
  if target = ctx.Ctx.node then begin
    Ctx.charge_cycles ctx 370.0;
    (Cluster.heap_read cluster t.control.g).Drust_memory.Partition.value
  end
  else begin
    let cache = (Ctx.current_node ctx).Cluster.cache in
    Ctx.charge_cycles ctx 150.0;
    match Cache.lookup cache t.control.g with
    | Some copy -> copy.Cache.value
    | None ->
        Ctx.note_remote_access ctx ~target;
        Ctx.flush ctx;
        Fabric.rdma_read (Ctx.fabric ctx) ~from:ctx.Ctx.node ~target
          ~bytes:t.control.size;
        let v =
          (Cluster.heap_read cluster t.control.g).Drust_memory.Partition.value
        in
        let copy = Cache.insert cache t.control.g ~size:t.control.size v in
        (* Arc payloads are immutable: leave the copy unpinned so the
           runtime may evict it lazily under pressure. *)
        Cache.release cache copy;
        v
  end

let drop ctx t =
  check_live t "drop";
  t.live <- false;
  let count = at_home ctx t (-1) in
  (match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Tap.Rc_released { g = t.control.g; count }));
  if count = 0 then begin
    t.control.freed <- true;
    Drust_core.Protocol.free_object ctx t.control.g;
    match Ctx.tap ctx with
    | None -> ()
    | Some f -> Ctx.emit ctx f (Tap.Rc_freed { g = t.control.g })
  end
