(* Tests for the machine layer: cluster parameters, node plumbing, the
   partition-serving map used by failover, global-heap state operations,
   per-thread contexts (compute batching, counters, safe points), the
   per-cluster Env record, and the no-leak guarantee it provides. *)

module Engine = Drust_sim.Engine
module Params = Drust_machine.Params
module Cluster = Drust_machine.Cluster
module Ctx = Drust_machine.Ctx
module Env = Drust_machine.Env
module Partition = Drust_memory.Partition
module Gaddr = Drust_memory.Gaddr
module Univ = Drust_util.Univ
module P = Drust_core.Protocol
module Dthread = Drust_runtime.Dthread
module Tap = Drust_memory.Tap
module Flight = Drust_obs.Flight

let int_tag : int Univ.tag = Univ.create_tag ~name:"mach.int"
let pack = Univ.pack int_tag
let unpack v = Univ.unpack_exn int_tag v

let small nodes =
  {
    Params.default with
    Params.nodes;
    cores_per_node = 2;
    mem_per_node = Drust_util.Units.mib 1;
  }

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params_defaults_match_testbed () =
  let p = Params.default in
  Alcotest.(check int) "8 nodes" 8 p.Params.nodes;
  Alcotest.(check int) "16 cores" 16 p.Params.cores_per_node;
  Alcotest.(check (float 1e-9)) "2.6 GHz" 2.6 p.Params.ghz

let test_params_fixed_resource () =
  let p =
    Params.fixed_resource Params.default ~total_cores:16
      ~total_mem:(Drust_util.Units.gib 64) ~nodes:8
  in
  Alcotest.(check int) "2 cores each" 2 p.Params.cores_per_node;
  Alcotest.(check int) "8 GiB each" (Drust_util.Units.gib 8) p.Params.mem_per_node;
  Alcotest.(check bool) "uneven split rejected" true
    (try
       ignore
         (Params.fixed_resource Params.default ~total_cores:16 ~total_mem:0
            ~nodes:3);
       false
     with Invalid_argument _ -> true)

let test_params_cycle_conversion () =
  let p = Params.default in
  let s = Params.cycles_to_seconds p 2.6e9 in
  Alcotest.(check (float 1e-12)) "2.6G cycles = 1 s" 1.0 s

(* ------------------------------------------------------------------ *)
(* Cluster *)

let test_cluster_structure () =
  let c = Cluster.create (small 4) in
  Alcotest.(check int) "node count" 4 (Cluster.node_count c);
  Alcotest.(check (list int)) "all alive" [ 0; 1; 2; 3 ] (Cluster.alive_nodes c);
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Cluster.node c 4);
       false
     with Invalid_argument _ -> true)

let test_cluster_heap_roundtrip () =
  let c = Cluster.create (small 4) in
  let g = Cluster.heap_alloc c ~node:2 ~size:64 (pack 5) in
  Alcotest.(check int) "address in node 2's range" 2 (Gaddr.node_of g);
  Alcotest.(check int) "read" 5 (unpack (Cluster.heap_read c g).Partition.value);
  Cluster.heap_write c g (pack 6);
  Alcotest.(check int) "write" 6 (unpack (Cluster.heap_read c g).Partition.value);
  Alcotest.(check bool) "mem" true (Cluster.heap_mem c g);
  Cluster.heap_free c g;
  Alcotest.(check bool) "freed" false (Cluster.heap_mem c g)

let test_cluster_promotion_redirects () =
  let c = Cluster.create (small 4) in
  let g = Cluster.heap_alloc c ~node:1 ~size:32 (pack 1) in
  (* Build a replica store for node 1's range and promote node 3. *)
  let replica = Partition.create ~node:1 ~capacity_bytes:(Drust_util.Units.mib 1) in
  Partition.put replica g ~size:32 (pack 99);
  Cluster.mark_failed c 1;
  Cluster.promote c ~home:1 ~by:3 ~store:replica;
  Alcotest.(check int) "serving map" 3 (Cluster.serving_node c 1);
  Alcotest.(check int) "reads hit the replica" 99
    (unpack (Cluster.heap_read c g).Partition.value);
  (* New allocations in the dead range land in the replica store too. *)
  let g2 = Cluster.heap_alloc c ~node:1 ~size:32 (pack 2) in
  Alcotest.(check int) "address keeps home range" 1 (Gaddr.node_of g2);
  Alcotest.(check bool) "wrong store rejected" true
    (try
       Cluster.promote c ~home:0 ~by:3 ~store:replica;
       false
     with Invalid_argument _ -> true)

let test_cluster_most_vacant () =
  let c = Cluster.create (small 3) in
  ignore (Cluster.heap_alloc c ~node:0 ~size:1000 (pack 0));
  ignore (Cluster.heap_alloc c ~node:1 ~size:500 (pack 0));
  Alcotest.(check int) "node 2 is empty" 2 (Cluster.most_vacant_node c);
  Cluster.mark_failed c 2;
  Alcotest.(check int) "dead nodes skipped" 1 (Cluster.most_vacant_node c)

(* ------------------------------------------------------------------ *)
(* Ctx *)

let in_cluster nodes body =
  let c = Cluster.create (small nodes) in
  ignore (Engine.spawn (Cluster.engine c) (fun () -> body c (Ctx.make c ~node:0)));
  Cluster.run c

(* Failover and membership transitions, each next to the flight record
   (kind, a, b, c, d) that [Flight.pp_event] and docs/FORENSICS.md
   document for it, written out by hand. *)
let transition_cases =
  [
    ( Tap.View_change { epoch = 3; reason = "join: node 2" },
      (Flight.k_view_change, 3, 0, 0, 0) );
    ( Tap.Handoff_prepared { home = 1; from_node = 1; to_node = 2 },
      (Flight.k_handoff_prepare, 1, 1, 2, 0) );
    ( Tap.Handoff_aborted
        { home = 1; from_node = 1; to_node = 2; reason = "Node_down(2)" },
      (Flight.k_handoff_abort, 1, 1, 2, 0) );
    ( Tap.Handoff_committed { home = 1; from_node = 1; to_node = 2; epoch = 4 },
      (Flight.k_handoff_commit, 1, 1, 2, 4) );
    ( Tap.Chain_reseeded { home = 1; server = 2; hosts = [ 3; 0 ] },
      (Flight.k_chain_reseed, 1, 2, 2, 0) );
    (Tap.Node_failed { node = 1 }, (Flight.k_node_failed, 1, 0, 0, 0));
    ( Tap.Promoted { home = 1; by = 2; replica = 1 },
      (Flight.k_promoted, 1, 2, 1, 0) );
  ]

let flight_lines cluster =
  List.map
    (Format.asprintf "%a" Flight.pp_event)
    (Flight.events (Cluster.flight cluster))

let test_cluster_transition () =
  List.iter
    (fun (ev, (kind, a, b, c, d)) ->
      let by_hand = Cluster.create (small 4) in
      Flight.record (Cluster.flight by_hand) ~node:3 ~time:0.0 ~kind ~a ~b ~c
        ~d;
      let expected = flight_lines by_hand in
      let subscribed = Cluster.create (small 4) in
      let seen = ref [] in
      Tap.set (Cluster.tap subscribed)
        (Some (fun ~node ~thread ev -> seen := (node, thread, ev) :: !seen));
      Cluster.transition subscribed ~node:3 ev;
      Alcotest.(check (list string)) "flight line" expected
        (flight_lines subscribed);
      Alcotest.(check bool) "tap event, thread -1" true
        (!seen = [ (3, -1, ev) ]);
      let quiet = Cluster.create (small 4) in
      Cluster.transition quiet ~node:3 ev;
      Alcotest.(check (list string)) "no subscriber: the flight line" expected
        (flight_lines quiet);
      Alcotest.(check bool) "no subscriber: nothing else" true
        (Drust_obs.Metrics.snapshot (Cluster.metrics quiet)
        = Drust_obs.Metrics.snapshot (Cluster.metrics by_hand)))
    transition_cases;
  let c = Cluster.create (small 4) in
  Alcotest.check_raises "not a transition"
    (Invalid_argument
       "Cluster.transition: not a failover or membership event")
    (fun () ->
      Cluster.transition c ~node:0 (Tap.Drop { g = Gaddr.make ~node:0 ~offset:0 }))

let test_ctx_compute_advances_time () =
  in_cluster 2 (fun c ctx ->
      let t0 = Cluster.now c in
      Ctx.compute ctx ~cycles:2.6e6;
      Alcotest.(check (float 1e-9)) "1 ms of compute" 1e-3 (Cluster.now c -. t0))

let test_ctx_charge_batches_below_grain () =
  in_cluster 2 (fun c ctx ->
      let t0 = Cluster.now c in
      (* Far below the flush grain: time must not advance yet. *)
      Ctx.charge_cycles ctx 100.0;
      Alcotest.(check (float 1e-15)) "batched" 0.0 (Cluster.now c -. t0);
      Ctx.flush ctx;
      Alcotest.(check bool) "flushed" true (Cluster.now c -. t0 > 0.0))

let test_ctx_compute_contends_for_cores () =
  (* 2 cores, 4 simultaneous 1ms bursts: makespan 2ms. *)
  let c = Cluster.create (small 2) in
  let done_at = ref [] in
  for _ = 1 to 4 do
    ignore
      (Engine.spawn (Cluster.engine c) (fun () ->
           let ctx = Ctx.make c ~node:0 in
           Ctx.compute ctx ~cycles:2.6e6;
           done_at := Cluster.now c :: !done_at))
  done;
  Cluster.run c;
  Alcotest.(check (float 1e-9)) "last finishes at 2ms" 2e-3
    (List.fold_left Float.max 0.0 !done_at)

let test_ctx_counters_and_hottest () =
  in_cluster 4 (fun _c ctx ->
      Ctx.note_remote_access ctx ~target:0 (* own node: ignored *);
      Alcotest.(check int) "fresh total" 0 (Ctx.remote_access_total ctx);
      Alcotest.(check (option int)) "fresh hottest" None
        (Ctx.hottest_remote_node ctx);
      Ctx.note_remote_access ctx ~target:2;
      Ctx.note_remote_access ctx ~target:2;
      Ctx.note_remote_access ctx ~target:3;
      Ctx.note_remote_access ctx ~target:0 (* own node: ignored *);
      Alcotest.(check int) "total" 3 (Ctx.remote_access_total ctx);
      Alcotest.(check (option int)) "hottest" (Some 2) (Ctx.hottest_remote_node ctx);
      Ctx.note_local_alloc ctx ~bytes:100;
      Alcotest.(check int) "alloc bytes" 100 ctx.Ctx.local_alloc_bytes;
      let before = Ctx.remote_access_total ctx in
      Ctx.note_remote_access ctx ~target:3;
      Ctx.note_remote_access ctx ~target:3;
      Alcotest.(check int) "delta" 2 (Ctx.remote_access_total ctx - before);
      Alcotest.(check (option int)) "new hottest" (Some 3)
        (Ctx.hottest_remote_node ctx))

let test_ctx_safe_point_hook_runs_on_flush () =
  in_cluster 2 (fun _c ctx ->
      let hits = ref 0 in
      ctx.Ctx.safe_point_hook <- Some (fun _ -> incr hits);
      Ctx.compute ctx ~cycles:1000.0;
      Ctx.compute ctx ~cycles:1000.0;
      Alcotest.(check int) "hook per flush" 2 !hits)

let test_ctx_rejects_bad_cycles () =
  in_cluster 2 (fun _c ctx ->
      let rejects name f =
        match f () with
        | () -> Alcotest.failf "%s accepted" name
        | exception Invalid_argument _ -> ()
      in
      rejects "charge_cycles -1" (fun () -> Ctx.charge_cycles ctx (-1.0));
      rejects "charge_cycles nan" (fun () -> Ctx.charge_cycles ctx nan);
      rejects "compute -1" (fun () -> Ctx.compute ctx ~cycles:(-1.0));
      rejects "compute nan" (fun () -> Ctx.compute ctx ~cycles:nan);
      Alcotest.(check (float 0.0)) "nothing pending" 0.0
        ctx.Ctx.cpu.Ctx.pending_cycles)

let test_ctx_allocation b =
  let c = Cluster.create (small 2) in
  let ctx = Ctx.make c ~node:0 in
  (* Charges below the flush grain only add to the pending count.  A
     constant argument is a static box; a computed one is boxed unless
     the call is inlined. *)
  Alloc_budget.check b "Ctx.charge_cycles" ~max:0.0
    (Alloc_budget.per_call (Cluster.engine c)
       ~run:(fun () -> Cluster.run c)
       (fun _ -> Ctx.charge_cycles ctx 1e-3));
  Alloc_budget.check b "Ctx.charge_cycles, computed argument" ~max:0.0
    (Alloc_budget.per_call (Cluster.engine c)
       ~run:(fun () -> Cluster.run c)
       (fun i -> Ctx.charge_cycles ctx (1e-3 *. float_of_int (i land 7))));
  Alloc_budget.check b "Ctx.compute" ~max:3.0
    (Alloc_budget.per_call (Cluster.engine c)
       ~run:(fun () -> Cluster.run c)
       (fun _ -> Ctx.compute ctx ~cycles:100.0));
  (* A context, its CPU record and its RNG stream; the per-node
     remote-access counts wait for the first remote access. *)
  Alloc_budget.check b "Ctx.make" ~max:20.0
    (Alloc_budget.per_call (Cluster.engine c)
       ~run:(fun () -> Cluster.run c)
       (fun _ -> ignore (Ctx.make c ~node:1)))

let test_ctx_thread_ids_unique () =
  in_cluster 2 (fun c ctx ->
      let other = Ctx.make c ~node:1 in
      Alcotest.(check bool) "distinct ids" true
        (ctx.Ctx.thread_id <> other.Ctx.thread_id))

let test_thread_ids_per_cluster () =
  (* Ids restart at 0 in every cluster: a run's thread numbering cannot
     depend on how many clusters ran before it in the same process. *)
  let c1 = Cluster.create (small 2) in
  let c2 = Cluster.create (small 2) in
  Alcotest.(check int) "c1 first" 0 (Cluster.fresh_thread_id c1);
  Alcotest.(check int) "c1 second" 1 (Cluster.fresh_thread_id c1);
  Alcotest.(check int) "c2 starts at 0 too" 0 (Cluster.fresh_thread_id c2)

(* ------------------------------------------------------------------ *)
(* Env *)

let test_env_basics () =
  let env = Env.create () in
  let k1 : int Env.key = Env.key () in
  let k2 : string Env.key = Env.key () in
  Alcotest.(check int) "init" 7 (Env.get env k1 ~init:(fun () -> 7));
  Alcotest.(check int) "memoized" 7 (Env.get env k1 ~init:(fun () -> 8));
  Alcotest.(check string) "k2 has its own slot" "x"
    (Env.get env k2 ~init:(fun () -> "x"));
  Alcotest.(check int) "k1 kept" 7 (Env.get env k1 ~init:(fun () -> 9))

let test_env_keys_distinct_despite_same_name () =
  (* Key identity is the allocation: two keys of the same type address
     distinct slots. *)
  let env = Env.create () in
  let ka : int Env.key = Env.key () in
  let kb : int Env.key = Env.key () in
  Alcotest.(check int) "ka init" 1 (Env.get env ka ~init:(fun () -> 1));
  Alcotest.(check int) "kb unset" 2 (Env.get env kb ~init:(fun () -> 2));
  Alcotest.(check int) "ka kept" 1 (Env.get env ka ~init:(fun () -> 3))

let test_env_isolated_per_cluster () =
  let k : int Env.key = Env.key () in
  let c1 = Cluster.create (small 2) in
  let c2 = Cluster.create (small 2) in
  Alcotest.(check int) "c1 init" 10
    (Env.get (Cluster.env c1) k ~init:(fun () -> 10));
  Alcotest.(check int) "c2 own init" 20
    (Env.get (Cluster.env c2) k ~init:(fun () -> 20));
  Alcotest.(check int) "c1 kept" 10
    (Env.get (Cluster.env c1) k ~init:(fun () -> 30))

(* ------------------------------------------------------------------ *)
(* Leak regression: discarded clusters must be collectable.  Before the
   Env refactor, uid-keyed process-global tables (protocol stats,
   listeners, registries, appkit marks) retained every cluster ever
   created; this test pins the fix.  The workload below touches every
   formerly-global subsystem so each binding demonstrably dies with its
   cluster.  [populate] is a separate function so no stack slot of the
   test frame keeps a cluster alive across the majors. *)

let populate weaks i =
  let c = Cluster.create (small 2) in
  P.set_always_move c false;
  Drust_memory.Tap.set (Cluster.tap c) (Some (fun ~node:_ ~thread:_ _ -> ()));
  ignore (Dthread.migration_latency_stats c);
  let r =
    Drust_appkit.Appkit.run_main c (fun ctx ->
        let o = P.create ctx ~size:64 (pack i) in
        let im = P.borrow_imm ctx o in
        ignore (P.imm_deref ctx im);
        P.drop_imm ctx im;
        let h = Dthread.spawn_on ctx ~node:0 (fun w -> Ctx.compute w ~cycles:500.0) in
        Dthread.join ctx h;
        (1.0, []))
  in
  ignore r.Drust_appkit.Appkit.throughput;
  Weak.set weaks i (Some c)

let test_no_per_cluster_state_leaks () =
  let n = 100 in
  let weaks : Cluster.t Weak.t = Weak.create n in
  for i = 0 to n - 1 do
    populate weaks i
  done;
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weaks i then incr live
  done;
  Alcotest.(check int) "all 100 clusters collected" 0 !live

let () =
  Alcotest.run "machine"
    [
      ( "params",
        [
          Alcotest.test_case "testbed defaults" `Quick test_params_defaults_match_testbed;
          Alcotest.test_case "fixed_resource" `Quick test_params_fixed_resource;
          Alcotest.test_case "cycle conversion" `Quick test_params_cycle_conversion;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "structure" `Quick test_cluster_structure;
          Alcotest.test_case "heap roundtrip" `Quick test_cluster_heap_roundtrip;
          Alcotest.test_case "promotion redirects" `Quick test_cluster_promotion_redirects;
          Alcotest.test_case "most vacant" `Quick test_cluster_most_vacant;
          Alcotest.test_case "transition reporter" `Quick
            test_cluster_transition;
        ] );
      ( "ctx",
        [
          Alcotest.test_case "compute time" `Quick test_ctx_compute_advances_time;
          Alcotest.test_case "charge batches" `Quick test_ctx_charge_batches_below_grain;
          Alcotest.test_case "core contention" `Quick test_ctx_compute_contends_for_cores;
          Alcotest.test_case "counters" `Quick test_ctx_counters_and_hottest;
          Alcotest.test_case "safe-point hook" `Quick test_ctx_safe_point_hook_runs_on_flush;
          Alcotest.test_case "unique ids" `Quick test_ctx_thread_ids_unique;
          Alcotest.test_case "bad cycles rejected" `Quick
            test_ctx_rejects_bad_cycles;
          Alcotest.test_case "allocation budget" `Quick
            (Alloc_budget.case test_ctx_allocation);
          Alcotest.test_case "ids per cluster" `Quick test_thread_ids_per_cluster;
        ] );
      ( "env",
        [
          Alcotest.test_case "basics" `Quick test_env_basics;
          Alcotest.test_case "key identity" `Quick test_env_keys_distinct_despite_same_name;
          Alcotest.test_case "per-cluster isolation" `Quick test_env_isolated_per_cluster;
          Alcotest.test_case "no state leaks" `Quick test_no_per_cluster_state_leaks;
        ] );
    ]
