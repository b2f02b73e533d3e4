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
  mutable holder : int; (* thread id, for misuse detection; -1 free *)
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
    holder = -1;
  }

let serving_home ctx t = Cluster.serving_node (Ctx.cluster ctx) t.home

(* The CAS on the lock word, run where the word lives: a top-level
   function of its operands, so that an attempt builds no closure. *)
let try_acquire t thread =
  if t.locked then false
  else begin
    t.locked <- true;
    t.holder <- thread;
    true
  end

let cas_attempt ctx t =
  let target = serving_home ctx t in
  let won =
    if target = ctx.Ctx.node then begin
      Ctx.charge_cycles ctx 40.0;
      try_acquire t ctx.Ctx.thread_id
    end
    else begin
      Ctx.note_remote_access ctx ~target;
      Ctx.flush ctx;
      Fabric.rdma_atomic (Ctx.fabric ctx) ~from:ctx.Ctx.node ~target
        try_acquire t ctx.Ctx.thread_id
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
  if not (cas_attempt ctx t) then begin
    let backoff = ref 2e-6 in
    while not (cas_attempt ctx t) do
      (* Bounded exponential backoff with jitter to break convoys. *)
      let jitter = Drust_util.Rng.float ctx.Ctx.rng !backoff in
      Engine.delay (Ctx.engine ctx) (!backoff +. jitter);
      backoff := Float.min (2.0 *. !backoff) 32e-6
    done
  end

let check_held ctx t op =
  if t.holder <> ctx.Ctx.thread_id then
    invalid_arg (Printf.sprintf "Dmutex.%s: lock not held" op)

let unlock ctx t =
  (match Ctx.tap ctx with
  | None -> ()
  | Some f ->
      Ctx.emit ctx f
        (Tap.Lock_released { g = t.data_g; thread = ctx.Ctx.thread_id }));
  check_held ctx t "unlock";
  t.holder <- -1;
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
