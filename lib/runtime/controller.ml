module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Engine = Drust_sim.Engine
module Resource = Drust_sim.Resource
module Fabric = Drust_net.Fabric
module Partition = Drust_memory.Partition
module Metrics = Drust_obs.Metrics
module Span = Drust_obs.Span

type probe = { node : int; cpu : float; mem : float }

(* The detector's and the rebalancer's tuning (docs/FAULTS.md). *)
let probe_interval = 0.5e-3
let probe_timeout = 2e-4
let miss_threshold = 3
let mem_threshold = 0.9
let cpu_threshold = 0.9

(* The worst silence a partition shorter than miss_threshold ×
   probe_interval can produce is one probe round of pre-partition quiet,
   plus the partition itself, plus one trailing timeout — which reaches
   exactly K × (interval + timeout) when the cut is aligned with the
   probe schedule.  One extra round of slack keeps such partitions
   strictly inside the grace window (immune to round-duration drift) at
   the cost of under one round of added detection latency for a real
   crash. *)
let grace =
  float_of_int (miss_threshold + 1) *. (probe_interval +. probe_timeout)

type t = {
  cluster : Cluster.t;
  replication : Replication.t option;
  membership : Membership.t option;
  misses : int array; (* consecutive missed heartbeats, per node *)
  last_ok : float array; (* time of each node's last successful probe *)
  deaths_cap : int; (* bound on the death log, oldest entries dropped *)
  mutable deaths : (int * float) list; (* (node, declared-dead time), newest first *)
  mutable on_death : (int -> unit) option;
  mutable running : bool;
  c_migrations : Metrics.counter;
  c_probes : Metrics.counter;
  c_failovers : Metrics.counter;
  c_heartbeat_misses : Metrics.counter;
  mutable last_probe : probe array;
}

(* Instant mark on node 0's timeline (where the controller daemon runs). *)
let ctl_mark t name ~node =
  let sp = Cluster.spans t.cluster in
  if Span.is_enabled sp then
    Span.instant sp ~track:0 ~category:"controller"
      ~args:[ ("node", string_of_int node) ]
      name

(* K consecutive missed probes: the failure detector's verdict.  Promotion
   runs through Replication when one is attached (the §4.2.3 path: backups
   take over the dead ranges and every server learns the new routing);
   otherwise the node is merely marked failed so placement avoids it. *)
let declare_dead t ctx node =
  if (Cluster.node t.cluster node).Cluster.alive then begin
    let at = Engine.now (Cluster.engine t.cluster) in
    (* Bounded log: the churn experiments run long enough that an
       unbounded list is a leak; only the newest verdicts matter. *)
    t.deaths <- (node, at) :: t.deaths;
    (if List.length t.deaths > t.deaths_cap then
       let rec take n = function
         | x :: tl when n > 0 -> x :: take (n - 1) tl
         | _ -> []
       in
       t.deaths <- take t.deaths_cap t.deaths);
    Metrics.incr t.c_failovers;
    ctl_mark t "FAILOVER" ~node;
    (* The membership view learns of the death (and announces the new
       epoch) before promotion, so verbs routed under the old view are
       NAKed rather than answered by the range's inheritor. *)
    (match t.membership with
    | Some m -> Membership.node_failed ctx m ~node
    | None -> ());
    (match t.replication with
    | Some repl -> Replication.fail_and_promote ctx repl ~node
    | None -> Cluster.mark_failed t.cluster node);
    match t.on_death with Some f -> f node | None -> ()
  end

let probe_all t ctx =
  let cluster = t.cluster in
  let fabric = Cluster.fabric cluster in
  let now = Engine.now (Cluster.engine cluster) in
  let probe_node n =
    let id = n.Cluster.id in
    let silent = { node = id; cpu = 0.0; mem = 0.0 } in
    if not n.Cluster.alive then silent
    else begin
      Metrics.incr t.c_probes;
      let collect () =
        let cpu = Resource.utilization n.Cluster.cores ~now in
        Resource.reset_utilization n.Cluster.cores ~now;
        let mem = Partition.usage_fraction n.Cluster.partition in
        { node = id; cpu; mem }
      in
      if id = ctx.Ctx.node then collect ()
      else
        match
          Fabric.rpc_with_timeout fabric ~from:ctx.Ctx.node ~target:id
            ~req_bytes:32 ~resp_bytes:64 ~timeout:probe_timeout collect
        with
        | p ->
            t.misses.(id) <- 0;
            t.last_ok.(id) <- Engine.now (Cluster.engine cluster);
            p
        | exception (Fabric.Node_down _ | Fabric.Rpc_timeout _) ->
            t.misses.(id) <- t.misses.(id) + 1;
            Metrics.incr t.c_heartbeat_misses;
            ctl_mark t "HEARTBEAT_MISS" ~node:id;
            (* Two conditions gate the verdict: K consecutive misses AND
               at least [grace] of silence since the last good probe.
               Miss counting alone can span less wall-clock than
               K × interval when timeouts stack, so a transient
               partition shorter than the nominal detection window could
               otherwise trigger a false-positive promotion. *)
            let silent_for =
              Engine.now (Cluster.engine cluster) -. t.last_ok.(id)
            in
            if t.misses.(id) >= miss_threshold && silent_for >= grace then
              declare_dead t ctx id;
            silent
    end
  in
  t.last_probe <- Array.map probe_node (Cluster.nodes cluster)

let most_vacant_by_cpu t =
  let best = ref 0 and best_cpu = ref Float.infinity in
  Array.iter
    (fun p ->
      if (Cluster.node t.cluster p.node).Cluster.alive && p.cpu < !best_cpu
      then begin
        best := p.node;
        best_cpu := p.cpu
      end)
    t.last_probe;
  !best

let heaviest_local_allocator threads =
  List.fold_left
    (fun acc r ->
      match acc with
      | None -> Some r
      | Some best ->
          if r.Registry.ctx.Ctx.local_alloc_bytes
             > best.Registry.ctx.Ctx.local_alloc_bytes
          then Some r
          else acc)
    None threads

let most_remote_accessor threads =
  List.fold_left
    (fun acc r ->
      match acc with
      | None -> Some r
      | Some best ->
          if Ctx.remote_access_total r.Registry.ctx
             > Ctx.remote_access_total best.Registry.ctx
          then Some r
          else acc)
    None threads

let rebalance t ctx =
  probe_all t ctx;
  let handle_pressure p =
    if not (Cluster.node t.cluster p.node).Cluster.alive then ()
    else
    let candidates =
      List.filter
        (fun r -> r.Registry.migrate_to = None)
        (Registry.threads_on t.cluster ~node:p.node)
    in
    if p.mem > mem_threshold then begin
      (* Move the thread consuming the most local heap off the node. *)
      match heaviest_local_allocator candidates with
      | Some r ->
          let target = Cluster.most_vacant_node t.cluster in
          if target <> p.node then begin
            Registry.order_migration r ~target;
            Metrics.incr t.c_migrations;
            ctl_mark t "MIGRATE(mem)" ~node:p.node
          end
      | None -> ()
    end
    else if p.cpu > cpu_threshold then begin
      (* Move the most remote-chatty thread toward its data — or to a
         vacant node when its preferred target is also hot. *)
      match most_remote_accessor candidates with
      | Some r when Ctx.remote_access_total r.Registry.ctx > 0 ->
          let preferred =
            match Ctx.hottest_remote_node r.Registry.ctx with
            | Some n -> n
            | None -> most_vacant_by_cpu t
          in
          let preferred_cpu = t.last_probe.(preferred).cpu in
          let target =
            if preferred_cpu > cpu_threshold then most_vacant_by_cpu t
            else preferred
          in
          if target <> p.node then begin
            Registry.order_migration r ~target;
            Metrics.incr t.c_migrations;
            ctl_mark t "MIGRATE(cpu)" ~node:p.node
          end
      | Some _ | None -> ()
    end
  in
  Array.iter handle_pressure t.last_probe

let start ?replication ?membership cluster =
  let m = Cluster.metrics cluster in
  let n = Cluster.node_count cluster in
  let start_now = Engine.now (Cluster.engine cluster) in
  let t =
    {
      cluster;
      replication;
      membership;
      misses = Array.make n 0;
      last_ok = Array.make n start_now;
      deaths_cap = max 16 (2 * n);
      deaths = [];
      on_death = None;
      running = true;
      c_migrations = Metrics.counter m ~unit_:"ops" "controller.migrations";
      c_probes = Metrics.counter m ~unit_:"ops" "controller.probes";
      c_failovers = Metrics.counter m ~unit_:"ops" "controller.failovers";
      c_heartbeat_misses =
        Metrics.counter m ~unit_:"ops" "controller.heartbeat_misses";
      last_probe = [||];
    }
  in
  let engine = Cluster.engine cluster in
  ignore
    (Engine.spawn engine (fun () ->
         (* The controller daemon lives on the launch node (node 0). *)
         let ctx = Ctx.make cluster ~node:0 in
         let rec loop () =
           if t.running then begin
             Engine.delay engine probe_interval;
             if t.running then begin
               rebalance t ctx;
               loop ()
             end
           end
         in
         loop ()));
  t

let stop t = t.running <- false

let migrations_ordered t = Metrics.value t.c_migrations
let set_on_death t f = t.on_death <- Some f
let deaths t = List.rev t.deaths
