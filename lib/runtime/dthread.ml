module Engine = Drust_sim.Engine
module Cluster = Drust_machine.Cluster
module Ctx = Drust_machine.Ctx
module Fabric = Drust_net.Fabric
module Protocol = Drust_core.Protocol
module Gaddr = Drust_memory.Gaddr

type handle = {
  record : Registry.record;
  proc : Engine.process_handle;
}

(* 768 KiB padded stack: at 5 GB/s line rate this plus the control round
   trips and NIC queuing lands a migration near the ~218 us the paper
   measures (S7.3). *)
let stack_bytes = 768 * 1024

(* Per-cluster migration latency samples for the drill-down experiment. *)
let migration_stats_key : Drust_util.Stats.t Drust_machine.Env.key =
  Drust_machine.Env.key ()

let migration_latency_stats cluster =
  Drust_machine.Env.get (Cluster.env cluster) migration_stats_key
    ~init:Drust_util.Stats.create

let migrate_now ctx ~target =
  let cluster = Ctx.cluster ctx in
  let fabric = Ctx.fabric ctx in
  let start = Engine.now (Ctx.engine ctx) in
  Ctx.flush ctx;
  (* Coordinate with the global controller (thread-location table). *)
  Fabric.rpc fabric ~from:ctx.Ctx.node ~target:0 ~req_bytes:64 ~resp_bytes:16
    (fun () -> ());
  (* Ship function pointer, saved registers and the padded stack.  The
     stack keeps its address on the target thanks to the aligned layout
     (Fig. 3), so no pointer fixup is needed. *)
  Fabric.rdma_write fabric ~from:ctx.Ctx.node ~target ~bytes:stack_bytes;
  (* Tell the target scheduler to resume the closure. *)
  Fabric.rpc fabric ~from:ctx.Ctx.node ~target ~req_bytes:64 ~resp_bytes:8
    (fun () -> ());
  ctx.Ctx.node <- target;
  let latency = Engine.now (Ctx.engine ctx) -. start in
  Drust_util.Stats.add (migration_latency_stats cluster) latency;
  latency

(* Installed on every runtime thread: executes pending migration orders at
   compute-flush boundaries (cooperative, non-preemptive). *)
let make_safe_point record ctx =
  match record.Registry.migrate_to with
  | Some target when target <> ctx.Ctx.node ->
      record.Registry.migrate_to <- None;
      record.Registry.migrations <- record.Registry.migrations + 1;
      ignore (migrate_now ctx ~target)
  | Some _ -> record.Registry.migrate_to <- None
  | None -> ()

let spawn_on ctx ~node body =
  let cluster = Ctx.cluster ctx in
  if node < 0 || node >= Cluster.node_count cluster then
    invalid_arg "Dthread.spawn_on: node out of range";
  (* Cross-server thread creation ships the closure (captured pointers
     only — shallow copy, §4.1) in a control message. *)
  if node <> ctx.Ctx.node then begin
    Ctx.flush ctx;
    Fabric.rpc (Ctx.fabric ctx) ~from:ctx.Ctx.node ~target:node ~req_bytes:256
      ~resp_bytes:16 (fun () -> ())
  end
  else Ctx.charge_cycles ctx 800.0;
  let child = Ctx.make cluster ~node in
  let record = Registry.register child in
  child.Ctx.safe_point_hook <- Some (make_safe_point record);
  let proc =
    Engine.spawn (Ctx.engine ctx) (fun () ->
        match body child with
        | () ->
            Ctx.flush child;
            Registry.unregister record
        | exception e ->
            Registry.unregister record;
            raise e)
  in
  { record; proc }

let spawn_to ctx owner body =
  let cluster = Ctx.cluster ctx in
  let node =
    Cluster.serving_node cluster (Gaddr.node_of (Protocol.gaddr owner))
  in
  spawn_on ctx ~node body

let join ctx h = Engine.join (Ctx.engine ctx) h.proc
let join_all ctx hs = List.iter (join ctx) hs

type scope = { owner : Ctx.t; mutable spawned : handle list }

let spawn_in scope ~node body =
  let h = spawn_on scope.owner ~node body in
  scope.spawned <- h :: scope.spawned;
  h

let scope ctx f =
  let s = { owner = ctx; spawned = [] } in
  let drain () = join_all ctx (List.rev s.spawned) in
  match f s with
  | () -> drain ()
  | exception e ->
      (* Scoped threads must still be joined before the scope unwinds —
         their borrows reference the enclosing frame. *)
      (try drain () with _ -> ());
      raise e
