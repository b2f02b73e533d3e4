(* Fault injection and automatic failover: the fabric's failure semantics
   (Node_down, blackholed partitions, seeded drops, timeouts, retries)
   and the controller's heartbeat detector driving backup promotion with
   zero application involvement. *)

module Engine = Drust_sim.Engine
module Fault = Drust_sim.Fault
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module Fabric = Drust_net.Fabric
module Metrics = Drust_obs.Metrics
module Controller = Drust_runtime.Controller
module Replication = Drust_runtime.Replication
module Membership = Drust_runtime.Membership
module P = Drust_core.Protocol
module Rng = Drust_util.Rng
module Univ = Drust_util.Univ

let int_tag : int Univ.tag = Univ.create_tag ~name:"repl.int"
let pack = Univ.pack int_tag
let unpack v = Univ.unpack_exn int_tag v

(* Node 0's value of one [fabric.*] counter, read from the registry. *)
let fabric_count cluster name =
  match
    Metrics.find
      (Metrics.snapshot (Cluster.metrics cluster))
      ~labels:[ ("node", "0") ] name
  with
  | Some (Metrics.Count n) -> n
  | _ -> Alcotest.failf "%s{node=0} missing" name

let small_params nodes =
  {
    Params.default with
    Params.nodes;
    cores_per_node = 4;
    mem_per_node = Drust_util.Units.mib 64;
  }

let in_cluster ?(nodes = 4) body =
  let cluster = Cluster.create (small_params nodes) in
  let plan =
    Fault.create
      ~engine:(Cluster.engine cluster)
      ~rng:(Rng.create ~seed:5)
      ~flight:(Cluster.flight cluster) ~nodes
  in
  Fabric.set_fault_plan (Cluster.fabric cluster) plan;
  let result = ref None in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         let ctx = Ctx.make cluster ~node:0 in
         result := Some (body cluster plan ctx)));
  Cluster.run cluster;
  match !result with Some v -> v | None -> Alcotest.fail "body did not run"

(* ------------------------------------------------------------------ *)
(* Fault plan semantics *)

let test_plan_is_lazy () =
  in_cluster (fun cluster plan _ctx ->
      let engine = Cluster.engine cluster in
      Fault.crash_at plan ~node:2 ~at:1e-3;
      let down () = List.filter (Fault.is_down plan) [ 0; 1; 2; 3 ] in
      Alcotest.(check bool) "not down before its time" false
        (Fault.is_down plan 2);
      Alcotest.(check (list int)) "nobody crashed yet" [] (down ());
      (* The crash time is exactly 1e-3: up one ulp before, down at it. *)
      Engine.delay engine (Float.pred 1e-3);
      Alcotest.(check bool) "up just before its crash time" false
        (Fault.is_down plan 2);
      Engine.delay engine (1e-3 -. Engine.now engine);
      Alcotest.(check (float 0.0)) "clock at the crash time" 1e-3
        (Engine.now engine);
      Alcotest.(check bool) "down at its crash time" true (Fault.is_down plan 2);
      Engine.delay engine 1e-3;
      Alcotest.(check bool) "down after its time" true (Fault.is_down plan 2);
      Alcotest.(check (list int)) "listed" [ 2 ] (down ()))

let test_partition_severs_across_but_not_within () =
  in_cluster (fun cluster plan _ctx ->
      let engine = Cluster.engine cluster in
      Fault.partition_at plan ~group:[ 0; 1 ] ~at:0.0 ~heal_at:1e-3;
      Alcotest.(check bool) "across" true (Fault.severed plan ~from:0 ~target:2);
      Alcotest.(check bool) "within group" false
        (Fault.severed plan ~from:0 ~target:1);
      Alcotest.(check bool) "within rest" false
        (Fault.severed plan ~from:2 ~target:3);
      Engine.delay engine 2e-3;
      Alcotest.(check bool) "healed" false (Fault.severed plan ~from:0 ~target:2))

(* ------------------------------------------------------------------ *)
(* Fabric failure semantics *)

let test_node_down_raised () =
  in_cluster (fun cluster plan _ctx ->
      let engine = Cluster.engine cluster in
      let fabric = Cluster.fabric cluster in
      Fault.crash_at plan ~node:2 ~at:(Engine.now engine);
      (match Fabric.rdma_read fabric ~from:0 ~target:2 ~bytes:64 with
      | () -> Alcotest.fail "read to a crashed node must raise"
      | exception Fabric.Node_down n ->
          Alcotest.(check int) "carries the dead node" 2 n);
      (* A verb issued *from* the dead node dies too. *)
      match Fabric.rpc fabric ~from:2 ~target:0 ~req_bytes:8 ~resp_bytes:8
              (fun () -> ())
      with
      | () -> Alcotest.fail "verb from a crashed node must raise"
      | exception Fabric.Node_down n -> Alcotest.(check int) "from" 2 n)

let test_async_drops_silently () =
  in_cluster (fun cluster plan _ctx ->
      let engine = Cluster.engine cluster in
      let fabric = Cluster.fabric cluster in
      Fault.crash_at plan ~node:2 ~at:(Engine.now engine);
      let landed = ref false in
      Fabric.rdma_write_async fabric ~from:0 ~target:2 ~bytes:64 (fun () ->
          landed := true);
      Engine.delay engine 1e-3;
      Alcotest.(check bool) "payload never lands" false !landed;
      Alcotest.(check bool) "drop counted" true
        (fabric_count cluster "fabric.drops" > 0))

let test_partition_times_out () =
  in_cluster (fun cluster plan _ctx ->
      let fabric = Cluster.fabric cluster in
      Fault.partition_at plan ~group:[ 0 ] ~at:0.0 ~heal_at:10e-3;
      (match
         Fabric.rpc_with_timeout fabric ~from:0 ~target:1 ~req_bytes:8
           ~resp_bytes:8 ~timeout:2e-4 (fun () -> 41)
       with
      | _ -> Alcotest.fail "partitioned rpc must time out"
      | exception Fabric.Rpc_timeout { from; target; _ } ->
          Alcotest.(check int) "from" 0 from;
          Alcotest.(check int) "target" 1 target);
      Alcotest.(check bool) "timeout counted" true
        (fabric_count cluster "fabric.timeouts" > 0))

let test_retry_spans_heal () =
  in_cluster (fun cluster plan _ctx ->
      let engine = Cluster.engine cluster in
      let fabric = Cluster.fabric cluster in
      Fault.partition_at plan ~group:[ 0 ] ~at:0.0 ~heal_at:1e-3;
      let v =
        Fabric.retry_with_backoff fabric ~from:0 ~base_delay:3e-4 (fun () ->
            Fabric.rpc_with_timeout fabric ~from:0 ~target:1 ~req_bytes:8
              ~resp_bytes:8 ~timeout:2e-4 (fun () -> 42))
      in
      Alcotest.(check int) "succeeds after the heal" 42 v;
      Alcotest.(check bool) "past the heal" true (Engine.now engine >= 1e-3);
      Alcotest.(check bool) "retries counted" true
        (fabric_count cluster "fabric.retries" > 0))

let test_retry_gives_up () =
  in_cluster (fun cluster plan _ctx ->
      let engine = Cluster.engine cluster in
      let fabric = Cluster.fabric cluster in
      Fault.crash_at plan ~node:3 ~at:(Engine.now engine);
      match
        Fabric.retry_with_backoff fabric ~from:0 ~attempts:3 (fun () ->
            Fabric.rdma_read fabric ~from:0 ~target:3 ~bytes:8)
      with
      | () -> Alcotest.fail "dead forever: retries must be exhausted"
      | exception Fabric.Node_down n -> Alcotest.(check int) "re-raised" 3 n)

let drop_run () =
  let nodes = 4 in
  let cluster = Cluster.create (small_params nodes) in
  let engine = Cluster.engine cluster in
  let fabric = Cluster.fabric cluster in
  let plan =
    Fault.create ~engine ~rng:(Rng.create ~seed:9)
      ~flight:(Cluster.flight cluster) ~nodes
  in
  Fault.degrade_link plan ~from:0 ~target:1 ~drop:0.5 ();
  Fabric.set_fault_plan fabric plan;
  let landed = ref 0 in
  ignore
    (Engine.spawn engine (fun () ->
         for _ = 1 to 100 do
           Fabric.rdma_write_async fabric ~from:0 ~target:1 ~bytes:32 (fun () ->
               incr landed)
         done));
  Cluster.run cluster;
  (!landed, fabric_count cluster "fabric.drops")

let test_seeded_drops_deterministic () =
  let l1, d1 = drop_run () in
  let l2, d2 = drop_run () in
  Alcotest.(check bool) "some dropped" true (d1 > 0);
  Alcotest.(check bool) "some landed" true (l1 > 0);
  Alcotest.(check int) "landed identical" l1 l2;
  Alcotest.(check int) "drops identical" d1 d2

(* ------------------------------------------------------------------ *)
(* Heartbeat detector and automatic promotion *)

let test_detector_promotes_automatically () =
  in_cluster (fun cluster plan ctx ->
      let engine = Cluster.engine cluster in
      let fabric = Cluster.fabric cluster in
      let o = P.create_on ctx ~node:1 ~size:64 (pack 7) in
      let repl = Replication.enable cluster in
      let ctrl = Controller.start ~replication:repl cluster in
      (* Inject the crash; nobody calls fail_and_promote. *)
      Fault.crash_at plan ~node:1 ~at:(Engine.now engine);
      while Controller.deaths ctrl = [] && Engine.now engine < 20e-3 do
        Engine.delay engine 0.5e-3
      done;
      (match Controller.deaths ctrl with
      | [ (n, at) ] ->
          Alcotest.(check int) "declared the victim dead" 1 n;
          Alcotest.(check bool) "within 5 probe intervals" true (at < 5e-3)
      | _ -> Alcotest.fail "expected exactly one death verdict");
      Alcotest.(check int) "backup promoted" 2 (Cluster.serving_node cluster 1);
      Alcotest.(check bool) "marked dead" false (Cluster.node cluster 1).Cluster.alive;
      (* Retried reads land on the promoted server. *)
      let v =
        Fabric.retry_with_backoff fabric ~from:ctx.Ctx.node (fun () ->
            unpack (P.owner_read ctx o))
      in
      Alcotest.(check int) "snapshot value survives" 7 v;
      Controller.stop ctrl;
      Replication.disable repl)

let test_transient_partition_no_false_positive () =
  in_cluster (fun cluster plan _ctx ->
      let engine = Cluster.engine cluster in
      let repl = Replication.enable cluster in
      let ctrl = Controller.start ~replication:repl cluster in
      (* One missed probe at most: far below the K=3 threshold. *)
      Fault.partition_at plan ~group:[ 1 ] ~at:0.2e-3 ~heal_at:0.9e-3;
      Engine.delay engine 6e-3;
      Alcotest.(check (list (pair int (float 1e-9)))) "no verdicts" []
        (Controller.deaths ctrl);
      Alcotest.(check bool) "still alive" true (Cluster.node cluster 1).Cluster.alive;
      Controller.stop ctrl;
      Replication.disable repl)

let test_detector_double_failure_two_replicas () =
  in_cluster (fun cluster plan ctx ->
      let engine = Cluster.engine cluster in
      let o = P.create_on ctx ~node:1 ~size:64 (pack 9) in
      let repl = Replication.enable ~replicas:2 cluster in
      let ctrl = Controller.start ~replication:repl cluster in
      (* Node 1's replicas live on nodes 2 and 3; kill 1, then its first
         backup, and the detector must walk the ring twice. *)
      Fault.crash_at plan ~node:1 ~at:1e-3;
      Fault.crash_at plan ~node:2 ~at:8e-3;
      while
        List.length (Controller.deaths ctrl) < 2 && Engine.now engine < 30e-3
      do
        Engine.delay engine 0.5e-3
      done;
      Alcotest.(check (list int)) "both declared dead" [ 1; 2 ]
        (List.map fst (Controller.deaths ctrl));
      Alcotest.(check int) "served by the second replica" 3
        (Cluster.serving_node cluster 1);
      Alcotest.(check int) "value intact" 9 (unpack (P.owner_read ctx o));
      Controller.stop ctrl;
      Replication.disable repl)

(* A transient partition long enough to stack [miss_threshold] timeouts
   but shorter than [miss_threshold × probe_interval] must NOT trigger a
   promotion: the detector's grace floor (silence since the last good
   probe) has to absorb the miss streak.  The window is aligned so node
   1 misses three consecutive probes — without the grace period this
   exact schedule declared it dead. *)
let test_grace_absorbs_miss_streak () =
  in_cluster (fun cluster plan _ctx ->
      let engine = Cluster.engine cluster in
      let repl = Replication.enable cluster in
      let ctrl = Controller.start ~replication:repl cluster in
      Fault.partition_at plan ~group:[ 1 ] ~at:1.02e-3
        ~heal_at:(1.02e-3 +. 1.47e-3);
      Engine.delay engine 10e-3;
      let snap = Drust_obs.Metrics.snapshot (Cluster.metrics cluster) in
      Alcotest.(check bool) "the miss streak reached the threshold" true
        (Drust_obs.Metrics.total snap "controller.heartbeat_misses" >= 3);
      Alcotest.(check (list (pair int (float 1e-9)))) "no verdicts" []
        (Controller.deaths ctrl);
      Alcotest.(check bool) "still alive" true
        (Cluster.node cluster 1).Cluster.alive;
      Controller.stop ctrl;
      Replication.disable repl)

(* Cascading failure past the replication factor: with one replica,
   killing a primary and then the backup that inherited its range must
   leave the range explicitly unrecoverable — reported by the manager,
   not raised through the controller daemon. *)
let test_cascading_failure_reports_unrecoverable () =
  in_cluster (fun cluster plan ctx ->
      let engine = Cluster.engine cluster in
      let o = P.create_on ctx ~node:1 ~size:64 (pack 7) in
      let repl = Replication.enable cluster in
      let ctrl = Controller.start ~replication:repl cluster in
      Fault.crash_at plan ~node:1 ~at:1e-3;
      Fault.crash_at plan ~node:2 ~at:10e-3;
      while
        List.length (Controller.deaths ctrl) < 2 && Engine.now engine < 40e-3
      do
        Engine.delay engine 0.5e-3
      done;
      Alcotest.(check (list int)) "both declared dead" [ 1; 2 ]
        (List.map fst (Controller.deaths ctrl));
      (* Range 1's only replica host (node 2) is dead: the range stays
         mapped to the dead server and is reported, nothing raises. *)
      Alcotest.(check (list int)) "range 1 unrecoverable" [ 1 ]
        (Replication.unrecoverable_ranges repl);
      (match P.owner_read ctx o with
      | _ -> Alcotest.fail "reading an unrecoverable range must raise"
      | exception Fabric.Node_down _ -> ());
      (* The rest of the cluster still works. *)
      let p = P.create_on ctx ~node:3 ~size:64 (pack 11) in
      Alcotest.(check int) "survivors serve" 11 (unpack (P.owner_read ctx p));
      Controller.stop ctrl;
      Replication.disable repl)

(* ------------------------------------------------------------------ *)
(* Epoch-stamped verbs *)

let test_stale_epoch_rejected_then_retried () =
  in_cluster (fun cluster _plan _ctx ->
      let fabric = Cluster.fabric cluster in
      let epoch = ref 0 in
      Fabric.set_epoch_source fabric (Some (fun () -> !epoch));
      (* Current epoch: accepted. *)
      Fabric.rdma_read fabric ~from:0 ~target:1 ~bytes:16 ~epoch:0;
      (* The view moves on: a verb still stamped 0 is NAKed at serve
         time with the live epoch attached. *)
      epoch := 3;
      (match Fabric.rdma_read fabric ~from:0 ~target:1 ~bytes:16 ~epoch:0 with
      | () -> Alcotest.fail "stale epoch must be rejected"
      | exception Fabric.Stale_epoch { seen; current; _ } ->
          Alcotest.(check int) "seen" 0 seen;
          Alcotest.(check int) "current" 3 current);
      Alcotest.(check bool) "rejection counted" true
        (fabric_count cluster "fabric.stale_epochs" > 0);
      (* A client that re-reads its view on every attempt recovers: the
         first attempt is NAKed, the retry carries the fresh epoch. *)
      let known = ref 0 in
      let attempts = ref 0 in
      let v =
        Fabric.retry_with_backoff fabric ~from:0 ~base_delay:1e-4 (fun () ->
            incr attempts;
            let e = !known in
            known := !epoch;
            Fabric.rdma_read fabric ~from:0 ~target:1 ~bytes:16 ~epoch:e;
            42)
      in
      Alcotest.(check int) "succeeds on retry" 42 v;
      Alcotest.(check bool) "took more than one attempt" true (!attempts > 1);
      Fabric.set_epoch_source fabric None)

(* ------------------------------------------------------------------ *)
(* Elastic membership: join / leave / crash-during-handoff *)

let test_membership_join_and_leave () =
  in_cluster (fun cluster _plan ctx ->
      let engine = Cluster.engine cluster in
      let o = P.create_on ctx ~node:1 ~size:4096 (pack 5) in
      P.pin ctx o;
      let repl = Replication.enable cluster in
      let m = Membership.create ~active:3 cluster ~replication:repl in
      (* Only an active member may leave: a refusal reads the view. *)
      let active node =
        match Membership.leave ctx m ~node with
        | Error (`Refused "leave: node is not active") -> false
        | _ -> true
      in
      Alcotest.(check bool) "standby not active" false (active 3);
      (* Join: node 3 activates and pulls a range off the most-loaded
         member — node 1, whose range holds the object. *)
      (match Membership.join ctx m ~node:3 with
      | Ok (Some 1) -> ()
      | Ok h ->
          Alcotest.failf "expected to inherit range 1, got %s"
            (match h with Some n -> string_of_int n | None -> "none")
      | Error _ -> Alcotest.fail "join failed");
      Alcotest.(check int) "range 1 served by the joiner" 3
        (Cluster.serving_node cluster 1);
      Alcotest.(check int) "value survived the handoff" 5
        (unpack (P.owner_read ctx o));
      let e_after_join = Membership.epoch m in
      Alcotest.(check bool) "join bumped the epoch" true (e_after_join >= 2);
      Alcotest.(check int) "coordinator knows the epoch" e_after_join
        (Membership.known_epoch m ~node:0);
      Engine.delay engine 1e-3;
      Alcotest.(check int) "announcement reached node 2" e_after_join
        (Membership.known_epoch m ~node:2);
      (* Graceful leave: every range node 3 serves moves to the
         least-loaded survivor — the inherited range 1 and its own
         (empty) native range 3 — and the node returns to standby. *)
      (match Membership.leave ctx m ~node:3 with
      | Ok moved ->
          Alcotest.(check bool) "leave moved range 1" true (List.mem 1 moved)
      | Error _ -> Alcotest.fail "leave failed");
      Alcotest.(check bool) "back to standby" false (active 3);
      Alcotest.(check bool) "inheritor is an active member" true
        (Cluster.serving_node cluster 1 < 3);
      Alcotest.(check int) "value survived the leave" 5
        (unpack (P.owner_read ctx o));
      Alcotest.(check bool) "epoch kept climbing" true
        (Membership.epoch m > e_after_join);
      Replication.disable repl)

let test_crash_during_handoff_falls_back_to_promotion () =
  in_cluster (fun cluster plan ctx ->
      let engine = Cluster.engine cluster in
      (* Big enough that the bulk copy spans several 64 KiB chunks: the
         chunk boundaries are where a mid-handoff crash surfaces. *)
      let o = P.create_on ctx ~node:1 ~size:(512 * 1024) (pack 13) in
      P.pin ctx o;
      let repl = Replication.enable cluster in
      let m = Membership.create cluster ~replication:repl in
      let ctrl = Controller.start ~replication:repl ~membership:m cluster in
      (* Saboteur: fail-stop the departing server as soon as the
         transfer is in flight. *)
      ignore
        (Engine.spawn engine (fun () ->
             let armed = ref true in
             while !armed && Engine.now engine < 20e-3 do
               Engine.delay engine 2e-5;
               match Membership.in_flight_handoff m with
               | Some (1, 1, _) ->
                   Fault.crash_at plan ~node:1 ~at:(Engine.now engine);
                   armed := false
               | _ -> ()
             done));
      (* Node 1's graceful leave hands its range off; the saboteur crashes
         it mid-copy. *)
      (match Membership.leave ctx m ~node:1 with
      | Error (`Aborted _) -> ()
      | Ok _ -> Alcotest.fail "sabotaged handoff must abort"
      | Error (`Refused r) -> Alcotest.failf "refused instead of aborted: %s" r);
      (* Clean abort: the serving map never changed... *)
      Alcotest.(check int) "serving map untouched by the abort" 1
        (Cluster.serving_node cluster 1);
      (* ...and the ordinary failover path recovers the range. *)
      while Controller.deaths ctrl = [] && Engine.now engine < 40e-3 do
        Engine.delay engine 0.5e-3
      done;
      Alcotest.(check (list int)) "detector declared the victim" [ 1 ]
        (List.map fst (Controller.deaths ctrl));
      Alcotest.(check int) "promoted to the ring backup" 2
        (Cluster.serving_node cluster 1);
      Alcotest.(check int) "value recovered from the backup" 13
        (unpack (P.owner_read ctx o));
      Controller.stop ctrl;
      Replication.disable repl)

(* ------------------------------------------------------------------ *)
(* Batching and read-through (no faults involved) *)

let test_batching_and_promoted_read_through () =
  in_cluster (fun cluster ctx_plan ctx ->
      ignore ctx_plan;
      let o = P.create_on ctx ~node:1 ~size:64 (pack 1) in
      let repl = Replication.enable cluster in
      let m = P.borrow_mut ctx o in
      P.mut_write ctx m (pack 2);
      P.drop_mut ctx m;
      Alcotest.(check bool) "write batched, not yet flushed" true
        (Replication.pending_writes repl > 0);
      P.transfer ctx o ~to_node:2;
      Alcotest.(check int) "escape flushes the batch" 0
        (Replication.pending_writes repl);
      Replication.sync_now ctx repl;
      let victim =
        Cluster.serving_node cluster (Drust_memory.Gaddr.node_of (P.gaddr o))
      in
      Replication.fail_and_promote ctx repl ~node:victim;
      Alcotest.(check int) "promoted read-through" 2 (unpack (P.owner_read ctx o));
      Replication.disable repl)

(* ------------------------------------------------------------------ *)
(* Frees reach the replicas: a promoted backup must not bring a freed
   object back, whichever way the free happened. *)

(* Fail node 1 and check that its range moved to node 2 with none of
   [freed] in it. *)
let promote_and_check cluster repl ctx freed =
  Replication.fail_and_promote ctx repl ~node:1;
  Alcotest.(check int) "node 2 serves range 1" 2 (Cluster.serving_node cluster 1);
  List.iter
    (fun g ->
      Alcotest.(check bool) "freed object stays freed" false
        (Cluster.heap_mem cluster g))
    freed

(* In the initial snapshot, then dropped from node 0: the free reaches
   node 1 as an asynchronous dealloc message. *)
let test_snapshot_object_freed_by_message () =
  in_cluster (fun cluster _plan ctx ->
      let o = P.create_on ctx ~node:1 ~size:4096 (pack 1) in
      let g = P.gaddr o in
      let repl = Replication.enable cluster in
      P.drop_owner ctx o;
      Engine.delay (Cluster.engine cluster) 1e-3;
      Alcotest.(check bool) "freed on the primary" false
        (Cluster.heap_mem cluster g);
      Replication.sync_now ctx repl;
      promote_and_check cluster repl ctx [ g ];
      Replication.disable repl)

(* Committed after enable, then freed by its local owner before the
   batch is flushed: the free takes it out of the batch. *)
let test_pending_object_freed_locally () =
  in_cluster (fun cluster _plan ctx ->
      let repl = Replication.enable cluster in
      let w = Ctx.make cluster ~node:1 in
      let o = P.create w ~size:4096 (pack 1) in
      P.owner_write w o (pack 2);
      Alcotest.(check int) "the write is batched" 1
        (Replication.pending_writes repl);
      let g = P.gaddr o in
      P.drop_owner w o;
      Alcotest.(check int) "the free leaves the batch" 0
        (Replication.pending_writes repl);
      Replication.sync_now ctx repl;
      promote_and_check cluster repl ctx [ g ];
      Replication.disable repl)

(* A local write that moves the object (forced here by the always-move
   ablation) frees its old address; the object itself survives at the
   new one. *)
let test_moved_object_old_address_freed () =
  in_cluster (fun cluster _plan ctx ->
      let w = Ctx.make cluster ~node:1 in
      let o = P.create w ~size:64 (pack 1) in
      let old = P.gaddr o in
      let repl = Replication.enable cluster in
      P.set_always_move cluster true;
      P.owner_write w o (pack 2);
      Replication.sync_now ctx repl;
      promote_and_check cluster repl ctx [ old ];
      Alcotest.(check int) "the object survives its move" 2
        (unpack (P.owner_read ctx o));
      Replication.disable repl)

let () =
  Alcotest.run "replication"
    [
      ( "fault-plan",
        [
          Alcotest.test_case "lazy crash schedule" `Quick test_plan_is_lazy;
          Alcotest.test_case "partition membership" `Quick
            test_partition_severs_across_but_not_within;
        ] );
      ( "fabric-faults",
        [
          Alcotest.test_case "node_down raised" `Quick test_node_down_raised;
          Alcotest.test_case "async drops silently" `Quick
            test_async_drops_silently;
          Alcotest.test_case "partition times out" `Quick test_partition_times_out;
          Alcotest.test_case "retry spans heal" `Quick test_retry_spans_heal;
          Alcotest.test_case "retry gives up" `Quick test_retry_gives_up;
          Alcotest.test_case "seeded drops deterministic" `Quick
            test_seeded_drops_deterministic;
        ] );
      ( "detector",
        [
          Alcotest.test_case "automatic promotion" `Quick
            test_detector_promotes_automatically;
          Alcotest.test_case "no false positive" `Quick
            test_transient_partition_no_false_positive;
          Alcotest.test_case "double failure, two replicas" `Quick
            test_detector_double_failure_two_replicas;
          Alcotest.test_case "grace absorbs a miss streak" `Quick
            test_grace_absorbs_miss_streak;
          Alcotest.test_case "cascading failure reported" `Quick
            test_cascading_failure_reports_unrecoverable;
        ] );
      ( "membership",
        [
          Alcotest.test_case "stale epoch NAK + retry" `Quick
            test_stale_epoch_rejected_then_retried;
          Alcotest.test_case "join and leave" `Quick
            test_membership_join_and_leave;
          Alcotest.test_case "crash mid-handoff falls back" `Quick
            test_crash_during_handoff_falls_back_to_promotion;
        ] );
      ( "batching",
        [
          Alcotest.test_case "batch+read-through" `Quick
            test_batching_and_promoted_read_through;
        ] );
      ( "frees",
        [
          Alcotest.test_case "snapshot object freed by message" `Quick
            test_snapshot_object_freed_by_message;
          Alcotest.test_case "pending object freed locally" `Quick
            test_pending_object_freed_locally;
          Alcotest.test_case "moved object's old address freed" `Quick
            test_moved_object_old_address_freed;
        ] );
    ]
