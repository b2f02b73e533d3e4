module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Fabric = Drust_net.Fabric
module Gaddr = Drust_memory.Gaddr
module Partition = Drust_memory.Partition
module Protocol = Drust_core.Protocol
module Tap = Drust_memory.Tap

type dirty = { size : int; value : Drust_util.Univ.t }

type t = {
  cluster : Cluster.t;
  replicas : int;
  (* backups.(r).(home): the r-th replica of node [home]'s range, hosted
     on node (home + 1 + r) mod n.  Every replica receives the initial
     snapshot and every write-back, so any of them can be promoted. *)
  backups : Partition.t array array;
  pending : (Gaddr.t, dirty) Hashtbl.t;
  mutable enabled : bool;
  (* Home ranges whose server died with every replica host already dead:
     nothing can re-serve them.  Recorded instead of raised, so cascading
     failures surface as an explicit report rather than an exception from
     deep inside promotion. *)
  mutable unrecoverable : int list;
}

let replica_host t ~home ~r = (home + 1 + r) mod Cluster.node_count t.cluster

let backup_node t home = replica_host t ~home ~r:0

let record_commit t _ctx g size value =
  if t.enabled then Hashtbl.replace t.pending g { size; value }

(* Flush the batched modifications belonging to one physical range or all
   of them.  One-sided asynchronous WRITEs to the backup server keep this
   off the mutator's critical path. *)
let flush_pending t ctx ~only =
  let fabric = Cluster.fabric t.cluster in
  (* Address order, not bucket order: the flush issues fabric events, so
     its iteration order is part of the deterministic schedule. *)
  let selected =
    match only with
    | Some phys -> if Hashtbl.mem t.pending phys then [ phys ] else []
    | None -> Drust_util.Tables.sorted_keys t.pending ~cmp:Gaddr.compare
  in
  List.iter
    (fun g ->
      let d = Hashtbl.find t.pending g in
      let home = Gaddr.node_of g in
      for r = 0 to t.replicas - 1 do
        let target = replica_host t ~home ~r in
        (* A dead replica host receives nothing: its copy is frozen at
           the failure point and must not masquerade as current. *)
        if (Cluster.node t.cluster target).Cluster.alive then begin
          if target <> ctx.Ctx.node then
            Fabric.rdma_write_async fabric ~from:ctx.Ctx.node ~target
              ~bytes:d.size (fun () -> ());
          Partition.put t.backups.(r).(home) g ~size:d.size d.value
        end
      done;
      Hashtbl.remove t.pending g)
    selected

let on_transfer t ctx g = if t.enabled then flush_pending t ctx ~only:(Some g)

(* A freed object leaves the batch and every replica of its range. *)
let on_free t g =
  Hashtbl.remove t.pending g;
  Array.iter
    (fun replicas ->
      let backup = replicas.(Gaddr.node_of g) in
      if Partition.mem backup g then Partition.free backup g)
    t.backups

let enable ?(replicas = 1) cluster =
  let n = Cluster.node_count cluster in
  if replicas < 1 || replicas >= n then
    invalid_arg "Replication.enable: need 1 <= replicas < nodes";
  let backups =
    Array.init replicas (fun _ ->
        Array.init n (fun i ->
            Partition.create ~node:i
              ~capacity_bytes:
                (Cluster.params cluster).Drust_machine.Params.mem_per_node))
  in
  let t =
    {
      cluster;
      replicas;
      backups;
      pending = Hashtbl.create 256;
      enabled = true;
      unrecoverable = [];
    }
  in
  (* Initial snapshot: mirror every live object into every replica. *)
  Array.iteri
    (fun i node ->
      Partition.iter node.Cluster.partition (fun g e ->
          for r = 0 to replicas - 1 do
            Partition.put backups.(r).(i) g ~size:e.Partition.size
              e.Partition.value
          done))
    (Cluster.nodes cluster);
  Protocol.set_listeners cluster
    (Some (record_commit t, on_transfer t, on_free t));
  t

let disable t =
  t.enabled <- false;
  Protocol.set_listeners t.cluster None

let pending_writes t = Hashtbl.length t.pending

let sync_now ctx t = flush_pending t ctx ~only:None

let fail_and_promote ctx t ~node =
  if node < 0 || node >= Cluster.node_count t.cluster then
    invalid_arg "Replication.fail_and_promote: node out of range";
  (* Everything the failed node had committed-and-escaped is in the
     backups; un-flushed pending entries for its range are lost. *)
  let lost =
    Drust_util.Tables.sorted_keys t.pending ~cmp:Gaddr.compare
    |> List.filter (fun g -> Gaddr.node_of g = node)
  in
  List.iter (Hashtbl.remove t.pending) lost;
  Cluster.mark_failed t.cluster node;
  Cluster.transition t.cluster ~node:ctx.Ctx.node (Tap.Node_failed { node });
  (* Re-serve every range whose current server just died (including the
     failed node's own range) from its first replica on an alive host. *)
  let n = Cluster.node_count t.cluster in
  for home = 0 to n - 1 do
    if Cluster.serving_node t.cluster home = node then begin
      let rec pick r =
        if r >= t.replicas then None
        else
          let host = replica_host t ~home ~r in
          if (Cluster.node t.cluster host).Cluster.alive then Some (host, r)
          else pick (r + 1)
      in
      match pick 0 with
      | None ->
          (* Every replica host died too (a cascade longer than the
             replica count).  The range stays mapped to the dead server —
             readers get Node_down — and the loss is reported through
             [unrecoverable_ranges] instead of an exception unwinding the
             controller mid-promotion. *)
          if not (List.mem home t.unrecoverable) then
            t.unrecoverable <- home :: t.unrecoverable
      | Some (by, r) ->
          Cluster.promote t.cluster ~home ~by ~store:t.backups.(r).(home);
          Cluster.transition t.cluster ~node:ctx.Ctx.node
            (Tap.Promoted { home; by; replica = r })
    end
  done;
  (* The controller announces the promotion to every alive server. *)
  let fabric = Cluster.fabric t.cluster in
  List.iter
    (fun id ->
      if id <> ctx.Ctx.node then
        (* An announcement target can be crashed or partitioned without
           having been detected yet — the fabric's view leads the
           controller's.  Skip it rather than unwind the controller
           mid-promotion: an unreachable node is either declared dead on
           a later probe round or learns the new serving map when its
           own verbs are retried. *)
        try
          Fabric.rpc fabric ~from:ctx.Ctx.node ~target:id ~req_bytes:32
            ~resp_bytes:8 (fun () -> ())
        with Fabric.Node_down _ | Fabric.Rpc_timeout _ -> ())
    (Cluster.alive_nodes t.cluster)

let unrecoverable_ranges t = List.sort Int.compare t.unrecoverable

(* Rebuild [home]'s replica chain from whatever store currently serves
   the range.  Called after a planned handoff commits: the old replicas
   mirror a snapshot the old server took, and the chain's hosts may have
   changed liveness since, so each alive host gets a fresh copy pushed
   from the new server (a bulk one-sided WRITE off the critical path).
   Dead hosts are skipped — their slots stay frozen and are never
   promoted (fail_and_promote only picks alive hosts).  Returns the
   alive hosts now holding a current copy, in ring order. *)
let reseed_chain _ctx t ~home =
  if home < 0 || home >= Cluster.node_count t.cluster then
    invalid_arg "Replication.reseed_chain: home out of range";
  let store = Cluster.serving_store t.cluster home in
  let server = Cluster.serving_node t.cluster home in
  let fabric = Cluster.fabric t.cluster in
  let capacity =
    (Cluster.params t.cluster).Drust_machine.Params.mem_per_node
  in
  let hosts = ref [] in
  for r = t.replicas - 1 downto 0 do
    let host = replica_host t ~home ~r in
    (* A ring slot landing on the server itself is skipped: a backup
       co-located with its primary survives exactly the failures the
       primary survives, so it adds nothing (and the old snapshot there
       is never promoted while the server is that node — a dead server
       means a dead co-located backup, which [pick] already skips). *)
    if host <> server && (Cluster.node t.cluster host).Cluster.alive then begin
      hosts := host :: !hosts;
      let fresh = Partition.create ~node:home ~capacity_bytes:capacity in
      let bytes = ref 0 in
      Partition.iter store (fun g e ->
          bytes := !bytes + e.Partition.size;
          Partition.put fresh g ~size:e.Partition.size e.Partition.value);
      t.backups.(r).(home) <- fresh;
      Fabric.rdma_write_async fabric ~from:server ~target:host
        ~bytes:(max 64 !bytes)
        (fun () -> ())
    end
  done;
  !hosts
