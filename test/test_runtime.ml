(* Tests for the distributed runtime: threading and placement, migration,
   Darc/Dmutex, the global controller, and the
   fault-tolerance (replication) layer. *)

module Engine = Drust_sim.Engine
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module Dthread = Drust_runtime.Dthread
module Darc = Drust_runtime.Darc
module Dmutex = Drust_runtime.Dmutex
module Controller = Drust_runtime.Controller
module Replication = Drust_runtime.Replication
module Registry = Drust_runtime.Registry
module P = Drust_core.Protocol
module Univ = Drust_util.Univ

let int_tag : int Univ.tag = Univ.create_tag ~name:"rt.int"
let pack = Univ.pack int_tag
let unpack v = Univ.unpack_exn int_tag v

let small_params nodes =
  {
    Params.default with
    Params.nodes;
    cores_per_node = 4;
    mem_per_node = Drust_util.Units.mib 64;
  }

let in_cluster ?(nodes = 4) body =
  let cluster = Cluster.create (small_params nodes) in
  let result = ref None in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         let ctx = Ctx.make cluster ~node:0 in
         result := Some (body cluster ctx)));
  Cluster.run cluster;
  match !result with Some v -> v | None -> Alcotest.fail "body did not run"

(* ------------------------------------------------------------------ *)
(* Threads *)

let test_spawn_runs_on_node () =
  in_cluster (fun _cluster ctx ->
      let where = ref (-1) in
      let h = Dthread.spawn_on ctx ~node:2 (fun w -> where := w.Ctx.node) in
      Dthread.join ctx h;
      Alcotest.(check int) "ran on 2" 2 !where)

let test_spawn_to_follows_data () =
  in_cluster (fun _cluster ctx ->
      let o = P.create_on ctx ~node:3 ~size:64 (pack 1) in
      let where = ref (-1) in
      let h = Dthread.spawn_to ctx o (fun w -> where := w.Ctx.node) in
      Dthread.join ctx h;
      Alcotest.(check int) "placed with data" 3 !where)

let test_join_all () =
  in_cluster (fun _cluster ctx ->
      let counter = ref 0 in
      let hs =
        List.init 10 (fun i ->
            Dthread.spawn_on ctx ~node:(i mod 4) (fun w ->
                Ctx.compute w ~cycles:1000.0;
                incr counter))
      in
      Dthread.join_all ctx hs;
      Alcotest.(check int) "all ran" 10 !counter)

let test_remote_spawn_costs_time () =
  in_cluster (fun cluster ctx ->
      let t0 = Engine.now (Cluster.engine cluster) in
      let h = Dthread.spawn_on ctx ~node:1 (fun _ -> ()) in
      Dthread.join ctx h;
      Alcotest.(check bool) "RPC time charged" true
        (Engine.now (Cluster.engine cluster) -. t0 > 5e-6))

(* ------------------------------------------------------------------ *)
(* Migration *)

let test_migrate_now () =
  in_cluster (fun _cluster ctx ->
      let h =
        Dthread.spawn_on ctx ~node:0 (fun w ->
            let latency = Dthread.migrate_now w ~target:2 in
            Alcotest.(check int) "context moved" 2 w.Ctx.node;
            (* Stack copy dominates: ~1 MiB at 5 GB/s plus control. *)
            Alcotest.(check bool) "latency in the 100us..1ms band" true
              (latency > 100e-6 && latency < 1e-3))
      in
      Dthread.join ctx h)

let test_migration_stats_recorded () =
  let cluster = Cluster.create (small_params 4) in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         let ctx = Ctx.make cluster ~node:0 in
         let hs =
           List.init 5 (fun _ ->
               Dthread.spawn_on ctx ~node:0 (fun w ->
                   ignore (Dthread.migrate_now w ~target:1)))
         in
         Dthread.join_all ctx hs));
  Cluster.run cluster;
  let stats = Dthread.migration_latency_stats cluster in
  Alcotest.(check int) "five migrations" 5 (Drust_util.Stats.count stats)

let test_controller_orders_migration_on_cpu_pressure () =
  let cluster = Cluster.create (small_params 4) in
  let controller = Controller.start cluster in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         let ctx = Ctx.make cluster ~node:0 in
         (* Overload node 0 with threads that also touch node 1's data so
            the policy has a preferred target. *)
         let o = P.create_on ctx ~node:1 ~size:64 (pack 0) in
         let hs =
           List.init 12 (fun _ ->
               Dthread.spawn_on ctx ~node:0 (fun w ->
                   for _ = 1 to 30 do
                     let r = P.borrow_imm w o in
                     ignore (P.imm_deref w r);
                     P.drop_imm w r;
                     Ctx.compute w ~cycles:500_000.0
                   done))
         in
         Dthread.join_all ctx hs;
         P.drop_owner ctx o;
         Controller.stop controller));
  Cluster.run cluster;
  Alcotest.(check bool) "controller migrated threads" true
    (Controller.migrations_ordered controller > 0);
  Alcotest.(check bool) "probes ran" true
    (Drust_obs.Metrics.total
       (Drust_obs.Metrics.snapshot (Cluster.metrics cluster))
       "controller.probes"
    > 0)

let test_controller_memory_pressure_policy () =
  (* A node with a small heap fills up; the controller must move the
     heaviest allocator away. *)
  let params =
    { (small_params 4) with Params.mem_per_node = Drust_util.Units.kib 256 }
  in
  let cluster = Cluster.create params in
  let controller = Controller.start cluster in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         let ctx = Ctx.make cluster ~node:0 in
         let hs =
           List.init 3 (fun _ ->
               Dthread.spawn_on ctx ~node:0 (fun w ->
                   (* Allocate ~80 KiB each, slowly, then hold it for
                      two 0.5 ms probe rounds, so probes see the
                      pressure build. *)
                   for _ = 1 to 20 do
                     ignore (P.create w ~size:4096 (pack 0));
                     Ctx.compute w ~cycles:300_000.0
                   done;
                   Ctx.compute w ~cycles:2_600_000.0))
         in
         Dthread.join_all ctx hs;
         Controller.stop controller));
  Cluster.run cluster;
  Alcotest.(check bool) "memory pressure triggered migrations" true
    (Controller.migrations_ordered controller > 0)

let test_safe_point_migrates () =
  in_cluster (fun cluster ctx ->
      let ended_on = ref (-1) in
      let h =
        Dthread.spawn_on ctx ~node:0 (fun w ->
            (* The migration is ordered while the first flush's compute
               runs; the next flush is the safe point that executes it. *)
            Ctx.compute w ~cycles:10_000.0;
            Ctx.flush w;
            Ctx.flush w;
            ended_on := w.Ctx.node)
      in
      Engine.delay (Ctx.engine ctx) 1e-7;
      (match Registry.threads_on (Ctx.cluster ctx) ~node:0 with
      | r :: _ -> Registry.order_migration r ~target:3
      | [] -> Alcotest.fail "thread not registered");
      Dthread.join ctx h;
      Alcotest.(check int) "migrated at the safe point" 3 !ended_on;
      Alcotest.(check int) "counted" 1
        (Drust_util.Stats.count (Dthread.migration_latency_stats cluster)))

let test_registry_tracks_threads () =
  in_cluster (fun cluster ctx ->
      let live () =
        List.fold_left
          (fun acc node -> acc + List.length (Registry.threads_on cluster ~node))
          0 [ 0; 1; 2; 3 ]
      in
      let before = live () in
      let h =
        Dthread.spawn_on ctx ~node:1 (fun w -> Ctx.compute w ~cycles:100_000.0)
      in
      Alcotest.(check int) "one more live" (before + 1) (live ());
      Alcotest.(check int) "on node 1" 1
        (List.length (Registry.threads_on cluster ~node:1));
      Dthread.join ctx h;
      Alcotest.(check int) "unregistered" before (live ()))

(* ------------------------------------------------------------------ *)
(* Darc / Dmutex *)

let test_darc_clone_and_count () =
  in_cluster (fun _cluster ctx ->
      let a = Darc.create ctx ~size:128 (pack 7) in
      let b = Darc.clone ctx a in
      Alcotest.(check int) "count 2" 2 (Darc.strong_count ctx a);
      Alcotest.(check int) "read via clone" 7 (unpack (Darc.get ctx b));
      Darc.drop ctx b;
      Alcotest.(check int) "count 1" 1 (Darc.strong_count ctx a);
      Darc.drop ctx a)

let test_darc_remote_get_caches () =
  in_cluster (fun cluster ctx ->
      let a = Darc.create ctx ~size:128 (pack 5) in
      let h =
        Dthread.spawn_on ctx ~node:2 (fun w ->
            Alcotest.(check int) "remote read" 5 (unpack (Darc.get w a));
            let t0 = Engine.now (Cluster.engine cluster) in
            Ctx.flush w;
            ignore (Darc.get w a);
            Ctx.flush w;
            let dt = Engine.now (Cluster.engine cluster) -. t0 in
            Alcotest.(check bool) "second read is cached (fast)" true (dt < 2e-6))
      in
      Dthread.join ctx h;
      Darc.drop ctx a)

let test_darc_last_drop_frees () =
  in_cluster (fun cluster ctx ->
      let a = Darc.create ctx ~size:64 (pack 1) in
      Darc.drop ctx a;
      Alcotest.(check bool) "reuse raises" true
        (try
           ignore (Darc.get ctx a);
           false
         with Invalid_argument _ -> true);
      ignore cluster)

(* With no tap subscriber, the local refcount and lock paths build no
   tap event and look nothing up per call, and a CAS or count update
   builds no closure: a clone's new handle is all that is left. *)
let test_runtime_allocation b =
  let c = Cluster.create (small_params 2) in
  let ctx = Ctx.make c ~node:0 and remote = Ctx.make c ~node:1 in
  let mu = Dmutex.create ctx ~size:8 (pack 0) in
  let arc = Darc.create ctx ~size:64 (pack 1) in
  let per_call body =
    Alloc_budget.per_call (Cluster.engine c) ~run:(fun () -> Cluster.run c) body
  in
  Alloc_budget.check b "local Dmutex lock+unlock" ~max:1.0
    (per_call (fun _ ->
         Dmutex.lock ctx mu;
         Dmutex.unlock ctx mu));
  (* From node 1: the CAS is a fabric atomic running a top-level
     function of its operands, the release a one-sided WRITE. *)
  Alloc_budget.check b "remote Dmutex lock+unlock" ~max:6.0
    (per_call (fun _ ->
         Dmutex.lock remote mu;
         Dmutex.unlock remote mu));
  Alloc_budget.check b "local Darc clone+drop" ~max:4.0
    (per_call (fun _ -> Darc.drop ctx (Darc.clone ctx arc)))

let test_dmutex_mutual_exclusion () =
  in_cluster (fun _cluster ctx ->
      let m = Dmutex.create ctx ~size:8 (pack 0) in
      let in_cs = ref 0 and max_in_cs = ref 0 and total = ref 0 in
      let hs =
        List.init 6 (fun i ->
            Dthread.spawn_on ctx ~node:(i mod 4) (fun w ->
                for _ = 1 to 10 do
                  Dmutex.lock w m;
                  incr in_cs;
                  max_in_cs := max !max_in_cs !in_cs;
                  Ctx.compute w ~cycles:2_000.0;
                  incr total;
                  decr in_cs;
                  Dmutex.unlock w m
                done))
      in
      Dthread.join_all ctx hs;
      Alcotest.(check int) "never two holders" 1 !max_in_cs;
      Alcotest.(check int) "all sections ran" 60 !total)

let test_dmutex_guarded_data () =
  in_cluster (fun _cluster ctx ->
      let m = Dmutex.create ctx ~size:8 (pack 0) in
      let hs =
        List.init 4 (fun i ->
            Dthread.spawn_on ctx ~node:i (fun w ->
                for _ = 1 to 10 do
                  Dmutex.with_lock w m (fun v -> (pack (unpack v + 1), ()))
                done))
      in
      Dthread.join_all ctx hs;
      Dmutex.lock ctx m;
      Alcotest.(check int) "counter consistent" 40 (unpack (Dmutex.read_guarded ctx m));
      Dmutex.unlock ctx m)

let test_dmutex_unlock_requires_holder () =
  in_cluster (fun _cluster ctx ->
      let m = Dmutex.create ctx ~size:8 (pack 0) in
      Alcotest.(check bool) "unheld unlock raises" true
        (try
           Dmutex.unlock ctx m;
           false
         with Invalid_argument _ -> true))

(* ------------------------------------------------------------------ *)
(* Scoped threads *)

let test_scope_joins_all () =
  in_cluster (fun _ ctx ->
      let finished = ref 0 in
      Dthread.scope ctx (fun s ->
          for i = 0 to 5 do
            ignore
              (Dthread.spawn_in s ~node:(i mod 4) (fun w ->
                   Ctx.compute w ~cycles:50_000.0;
                   incr finished))
          done);
      (* scope returns only after every scoped thread finished. *)
      Alcotest.(check int) "all joined" 6 !finished)

let test_scope_joins_on_exception () =
  in_cluster (fun _ ctx ->
      let finished = ref 0 in
      (try
         Dthread.scope ctx (fun s ->
             ignore
               (Dthread.spawn_in s ~node:0 (fun w ->
                    Ctx.compute w ~cycles:100_000.0;
                    incr finished));
             failwith "scope body failed")
       with Failure _ -> ());
      Alcotest.(check int) "joined despite exception" 1 !finished)

(* ------------------------------------------------------------------ *)
(* Replication / fault tolerance *)

let test_replication_snapshot_and_writeback () =
  in_cluster (fun cluster ctx ->
      let o = P.create_on ctx ~node:1 ~size:64 (pack 1) in
      let r = Replication.enable cluster in
      (* Mutate, then transfer ownership: the transfer must flush the
         batched write-back. *)
      let m = P.borrow_mut ctx o in
      P.mut_write ctx m (pack 2);
      P.drop_mut ctx m;
      Alcotest.(check bool) "write batched" true (Replication.pending_writes r > 0);
      P.transfer ctx o ~to_node:2;
      Alcotest.(check int) "flushed on transfer" 0 (Replication.pending_writes r);
      Replication.disable r)

let test_replication_survives_failure () =
  in_cluster (fun cluster ctx ->
      (* Objects on node 1 before replication is enabled. *)
      let o1 = P.create_on ctx ~node:1 ~size:64 (pack 11) in
      let r = Replication.enable cluster in
      (* A post-enable write, escaped via ownership transfer. *)
      let m = P.borrow_mut ctx o1 in
      P.mut_write ctx m (pack 12);
      P.drop_mut ctx m;
      (* The write-back target must be node 1's range; the mutable borrow
         moved the object into node 0's partition, so give it back. *)
      P.transfer ctx o1 ~to_node:2;
      Replication.sync_now ctx r;
      (* Kill the node currently hosting the object. *)
      let victim =
        Cluster.serving_node cluster
          (Drust_memory.Gaddr.node_of (P.gaddr o1))
      in
      Replication.fail_and_promote ctx r ~node:victim;
      Alcotest.(check int) "promoted read sees committed value" 12
        (unpack (P.owner_read ctx o1));
      Replication.disable r)

let test_replication_unsynced_writes_lost () =
  in_cluster (fun cluster ctx ->
      let o = P.create_on ctx ~node:0 ~size:64 (pack 1) in
      let r = Replication.enable cluster in
      (* Move the object to node 1 via a writer there, committing 2. *)
      let h =
        Dthread.spawn_on ctx ~node:1 (fun w ->
            let m = P.borrow_mut w o in
            P.mut_write w m (pack 2);
            P.drop_mut w m)
      in
      Dthread.join ctx h;
      Replication.sync_now ctx r;
      (* A later write that never escapes node 1... *)
      let h2 =
        Dthread.spawn_on ctx ~node:1 (fun w ->
            let m = P.borrow_mut w o in
            P.mut_write w m (pack 3);
            P.drop_mut w m)
      in
      Dthread.join ctx h2;
      (* ...is lost when node 1 dies: the backup still has 2. *)
      Replication.fail_and_promote ctx r ~node:1;
      Alcotest.(check int) "rolls back to last escape" 2
        (unpack (P.owner_read ctx o));
      Replication.disable r)

let test_replication_two_failures_with_two_replicas () =
  in_cluster ~nodes:4 (fun cluster ctx ->
      let o = P.create_on ctx ~node:1 ~size:64 (pack 7) in
      let r = Replication.enable ~replicas:2 cluster in
      (* Kill node 1 (the home), then node 2 (the first backup): the
         second replica on node 3 must still serve the range. *)
      Replication.fail_and_promote ctx r ~node:1;
      Alcotest.(check int) "served by first backup" 2
        (Cluster.serving_node cluster 1);
      Alcotest.(check int) "value intact" 7 (unpack (P.owner_read ctx o));
      Replication.fail_and_promote ctx r ~node:2;
      Alcotest.(check int) "served by second backup" 3
        (Cluster.serving_node cluster 1);
      Alcotest.(check int) "value still intact" 7 (unpack (P.owner_read ctx o));
      Replication.disable r)

let test_backup_node_ring () =
  in_cluster (fun cluster _ctx ->
      let r = Replication.enable cluster in
      Alcotest.(check int) "ring" 1 (Replication.backup_node r 0);
      Alcotest.(check int) "wraps" 0 (Replication.backup_node r 3);
      Replication.disable r)

let () =
  Alcotest.run "runtime"
    [
      ( "threads",
        [
          Alcotest.test_case "spawn_on node" `Quick test_spawn_runs_on_node;
          Alcotest.test_case "spawn_to data" `Quick test_spawn_to_follows_data;
          Alcotest.test_case "join_all" `Quick test_join_all;
          Alcotest.test_case "remote spawn cost" `Quick test_remote_spawn_costs_time;
        ] );
      ( "migration",
        [
          Alcotest.test_case "migrate_now" `Quick test_migrate_now;
          Alcotest.test_case "stats recorded" `Quick test_migration_stats_recorded;
          Alcotest.test_case "controller cpu policy" `Quick
            test_controller_orders_migration_on_cpu_pressure;
          Alcotest.test_case "controller memory policy" `Quick
            test_controller_memory_pressure_policy;
          Alcotest.test_case "safe point migrates" `Quick test_safe_point_migrates;
          Alcotest.test_case "registry tracks" `Quick test_registry_tracks_threads;
        ] );
      ( "shared-state",
        [
          Alcotest.test_case "darc clone/count" `Quick test_darc_clone_and_count;
          Alcotest.test_case "darc caches" `Quick test_darc_remote_get_caches;
          Alcotest.test_case "darc last drop" `Quick test_darc_last_drop_frees;
          Alcotest.test_case "dmutex exclusion" `Quick test_dmutex_mutual_exclusion;
          Alcotest.test_case "dmutex guarded" `Quick test_dmutex_guarded_data;
          Alcotest.test_case "dmutex misuse" `Quick test_dmutex_unlock_requires_holder;
          Alcotest.test_case "allocation budgets" `Quick
            (Alloc_budget.case test_runtime_allocation);
        ] );
      ( "rc-and-scope",
        [
          Alcotest.test_case "scope joins all" `Quick test_scope_joins_all;
          Alcotest.test_case "scope joins on exception" `Quick
            test_scope_joins_on_exception;
        ] );
      ( "replication",
        [
          Alcotest.test_case "snapshot+writeback" `Quick
            test_replication_snapshot_and_writeback;
          Alcotest.test_case "survives failure" `Quick test_replication_survives_failure;
          Alcotest.test_case "unsynced lost" `Quick test_replication_unsynced_writes_lost;
          Alcotest.test_case "two failures, two replicas" `Quick
            test_replication_two_failures_with_two_replicas;
          Alcotest.test_case "backup ring" `Quick test_backup_node_ring;
        ] );
    ]
