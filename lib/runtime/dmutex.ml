module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Engine = Drust_sim.Engine
module Fabric = Drust_net.Fabric
module Gaddr = Drust_memory.Gaddr
module Tap = Drust_memory.Tap
module Univ = Drust_util.Univ

type t = {
  data_g : Gaddr.t;
  size : int;
  home : int;
  mutable locked : bool;
  mutable holder : int option; (* thread id, for misuse detection *)
}

(* Lock transitions go to the cluster's tap ([Tap.Lock_*]).
   [Lock_released] fires {e before} the holder check, so a checker
   observes a foreign unlock the operation itself then rejects. *)

let create ctx ~size v =
  Ctx.charge_cycles ctx 200.0;
  let data_g = Cluster.heap_alloc (Ctx.cluster ctx) ~node:ctx.Ctx.node ~size v in
  (match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Tap.Lock_created { g = data_g }));
  {
    data_g;
    size;
    home = ctx.Ctx.node;
    locked = false;
    holder = None;
  }

let serving_home ctx t = Cluster.serving_node (Ctx.cluster ctx) t.home

let cas_attempt ctx t =
  let target = serving_home ctx t in
  let attempt () =
    if t.locked then false
    else begin
      t.locked <- true;
      t.holder <- Some ctx.Ctx.thread_id;
      true
    end
  in
  let won =
    if target = ctx.Ctx.node then begin
      Ctx.charge_cycles ctx 40.0;
      attempt ()
    end
    else begin
      Ctx.note_remote_access ctx ~target;
      Ctx.flush ctx;
      Fabric.rdma_atomic (Ctx.fabric ctx) ~from:ctx.Ctx.node ~target attempt
    end
  in
  (if won then
     match Ctx.tap ctx with
     | None -> ()
     | Some f ->
         Ctx.emit ctx f
           (Tap.Lock_acquired { g = t.data_g; thread = ctx.Ctx.thread_id }));
  won

let lock ctx t =
  let engine = Ctx.engine ctx in
  let rec retry backoff =
    if not (cas_attempt ctx t) then begin
      (* Bounded exponential backoff with jitter to break convoys. *)
      let jitter = Drust_util.Rng.float ctx.Ctx.rng backoff in
      Engine.delay engine (backoff +. jitter);
      retry (Float.min (2.0 *. backoff) 32e-6)
    end
  in
  if not (cas_attempt ctx t) then retry 2e-6

let check_held ctx t op =
  match t.holder with
  | Some id when id = ctx.Ctx.thread_id -> ()
  | Some _ | None -> invalid_arg (Printf.sprintf "Dmutex.%s: lock not held" op)

let unlock ctx t =
  (match Ctx.tap ctx with
  | None -> ()
  | Some f ->
      Ctx.emit ctx f
        (Tap.Lock_released { g = t.data_g; thread = ctx.Ctx.thread_id }));
  check_held ctx t "unlock";
  t.holder <- None;
  let target = serving_home ctx t in
  if target = ctx.Ctx.node then begin
    Ctx.charge_cycles ctx 30.0;
    t.locked <- false
  end
  else begin
    Ctx.flush ctx;
    (* Release with a one-sided 8-byte WRITE of the lock word. *)
    Fabric.rdma_write (Ctx.fabric ctx) ~from:ctx.Ctx.node ~target ~bytes:8;
    t.locked <- false
  end

let read_guarded ctx t =
  check_held ctx t "read_guarded";
  let cluster = Ctx.cluster ctx in
  let target = serving_home ctx t in
  if target = ctx.Ctx.node then Ctx.charge_cycles ctx 300.0
  else begin
    Ctx.note_remote_access ctx ~target;
    Ctx.flush ctx;
    Fabric.rdma_read (Ctx.fabric ctx) ~from:ctx.Ctx.node ~target ~bytes:t.size
  end;
  (Cluster.heap_read cluster t.data_g).Drust_memory.Partition.value

let write_guarded ctx t v =
  check_held ctx t "write_guarded";
  let cluster = Ctx.cluster ctx in
  let target = serving_home ctx t in
  if target = ctx.Ctx.node then Ctx.charge_cycles ctx 300.0
  else begin
    Ctx.flush ctx;
    Fabric.rdma_write (Ctx.fabric ctx) ~from:ctx.Ctx.node ~target ~bytes:t.size
  end;
  Cluster.heap_write cluster t.data_g v

let with_lock ctx t f =
  lock ctx t;
  match f (read_guarded ctx t) with
  | v, result ->
      write_guarded ctx t v;
      unlock ctx t;
      result
  | exception e ->
      unlock ctx t;
      raise e
