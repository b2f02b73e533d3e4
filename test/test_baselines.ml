(* Tests for the GAM and Grappa baseline DSMs and the backend-neutral
   interface: directory-state transitions, false sharing, bounded caching,
   delegation serialization, and cross-backend semantic equivalence. *)

module Engine = Drust_sim.Engine
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module Gam = Drust_gam.Gam
module Grappa = Drust_grappa.Grappa
module Dsm = Drust_dsm.Dsm
module Dthread = Drust_runtime.Dthread
module Univ = Drust_util.Univ
module Simplan = Drust_plan.Simplan

let int_tag : int Univ.tag = Univ.create_tag ~name:"bl.int"
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
(* GAM *)

let test_gam_read_write_roundtrip () =
  in_cluster (fun cluster ctx ->
      let d = Gam.backend (Gam.create cluster) in
      let h = d.Dsm.alloc_on ctx ~node:1 ~size:100 (pack 1) in
      Alcotest.(check int) "read" 1 (unpack (d.Dsm.read ctx h));
      d.Dsm.write ctx h (pack 2);
      Alcotest.(check int) "after write" 2 (unpack (d.Dsm.read ctx h)))

let test_gam_uncached_remote_read_costs_16us () =
  in_cluster (fun cluster ctx ->
      let g = Gam.create cluster in
      let h = Gam.alloc_on g ctx ~node:1 ~size:512 (pack 0) in
      Ctx.flush ctx;
      let t0 = Engine.now (Cluster.engine cluster) in
      ignore (Gam.read g ctx h);
      Ctx.flush ctx;
      let dt = Engine.now (Cluster.engine cluster) -. t0 in
      (* The S3 calibration: ~16 us end to end. *)
      Alcotest.(check bool)
        (Printf.sprintf "%.1f us in [13, 19]" (dt *. 1e6))
        true
        (dt > 13e-6 && dt < 19e-6))

let test_gam_second_read_hits () =
  in_cluster (fun cluster ctx ->
      let g = Gam.create cluster in
      let h = Gam.alloc_on g ctx ~node:1 ~size:512 (pack 0) in
      ignore (Gam.read g ctx h);
      Ctx.flush ctx;
      let t0 = Engine.now (Cluster.engine cluster) in
      ignore (Gam.read g ctx h);
      Ctx.flush ctx;
      Alcotest.(check bool) "hit is sub-microsecond" true
        (Engine.now (Cluster.engine cluster) -. t0 < 1e-6))

let test_gam_write_invalidates_reader () =
  in_cluster (fun cluster ctx ->
      let g = Gam.create cluster in
      let d = Gam.backend g in
      let h = d.Dsm.alloc_on ctx ~node:0 ~size:512 (pack 0) in
      ignore (d.Dsm.read ctx h);
      let reader =
        Dthread.spawn_on ctx ~node:1 (fun w -> ignore (d.Dsm.read w h))
      in
      Dthread.join ctx reader;
      let invs0 = Gam.invalidations_sent g in
      (* A writer on node 2 must invalidate both sharers. *)
      let writer =
        Dthread.spawn_on ctx ~node:2 (fun w -> d.Dsm.write w h (pack 5))
      in
      Dthread.join ctx writer;
      Alcotest.(check bool) "invalidations sent" true
        (Gam.invalidations_sent g > invs0);
      (* Reader must refetch and see the new value. *)
      let misses0 = Gam.read_misses g in
      Alcotest.(check int) "coherent read" 5 (unpack (d.Dsm.read ctx h));
      Alcotest.(check bool) "read missed after invalidation" true
        (Gam.read_misses g > misses0))

(* Two 64 B objects packed into the same 512 B block: writing one must
   invalidate cached copies of the other. *)
let test_gam_false_sharing () =
  in_cluster (fun cluster ctx ->
      let g = Gam.create cluster in
      let d = Gam.backend g in
      let a = d.Dsm.alloc_on ctx ~node:0 ~size:64 (pack 1) in
      let b = d.Dsm.alloc_on ctx ~node:0 ~size:64 (pack 2) in
      let reader =
        Dthread.spawn_on ctx ~node:1 (fun w -> ignore (d.Dsm.read w b))
      in
      Dthread.join ctx reader;
      let invs0 = Gam.invalidations_sent g in
      (* Writing a (same block as b) invalidates node 1's copy of b... *)
      d.Dsm.write ctx a (pack 10);
      Alcotest.(check bool) "write caused invalidation of co-resident object"
        true
        (Gam.invalidations_sent g > invs0);
      (* ...so node 1's next read of b misses even though b never changed. *)
      let misses0 = Gam.read_misses g in
      let reader2 =
        Dthread.spawn_on ctx ~node:1 (fun w ->
            Alcotest.(check int) "b unchanged" 2 (unpack (d.Dsm.read w b)))
      in
      Dthread.join ctx reader2;
      Alcotest.(check bool) "false-sharing miss" true
        (Gam.read_misses g > misses0))

(* Freeing one of two 64 B objects packed into a block, even twice,
   must keep the block's directory state for the live one: node 1's cached copy of a
   is still there, so node 0's write of a must take a directory round
   that invalidates it, not the home's local fast path. *)
let test_gam_free_keeps_neighbour_state () =
  in_cluster ~nodes:2 (fun cluster ctx ->
      let g = Gam.create cluster in
      let d = Gam.backend g in
      let a = d.Dsm.alloc_on ctx ~node:0 ~size:64 (pack 1) in
      let b = d.Dsm.alloc_on ctx ~node:0 ~size:64 (pack 2) in
      let reader =
        Dthread.spawn_on ctx ~node:1 (fun w -> ignore (d.Dsm.read w a))
      in
      Dthread.join ctx reader;
      d.Dsm.free ctx b;
      (* A repeated free must not count b out of the block twice. *)
      d.Dsm.free ctx b;
      let invs0 = Gam.invalidations_sent g
      and wmisses0 = Gam.write_misses g in
      d.Dsm.write ctx a (pack 10);
      Alcotest.(check int) "node 1's copy of a invalidated" 1
        (Gam.invalidations_sent g - invs0);
      Alcotest.(check int) "write took a directory round" 1
        (Gam.write_misses g - wmisses0);
      let reader2 =
        Dthread.spawn_on ctx ~node:1 (fun w ->
            Alcotest.(check int) "node 1 reads the new a" 10
              (unpack (d.Dsm.read w a)))
      in
      Dthread.join ctx reader2)

let test_gam_small_object_spans_blocks () =
  in_cluster (fun cluster ctx ->
      let g = Gam.create cluster in
      (* 400-byte objects with a 512 B block: b straddles a's block. *)
      let _a = Gam.alloc_on g ctx ~node:0 ~size:400 (pack 1) in
      let b = Gam.alloc_on g ctx ~node:0 ~size:400 (pack 2) in
      let reader =
        Dthread.spawn_on ctx ~node:1 (fun w ->
            Alcotest.(check int) "reads through" 2 (unpack (Gam.read g w b)))
      in
      Dthread.join ctx reader)

let test_gam_bounded_cache_evicts () =
  in_cluster (fun cluster ctx ->
      let g = Gam.create cluster in
      (* Stream three 3 MiB objects through the 6 MiB cache on node 0. *)
      let objs =
        List.init 3 (fun i ->
            Gam.alloc_on g ctx ~node:1 ~size:(Drust_util.Units.mib 3) (pack i))
      in
      List.iter (fun h -> ignore (Gam.read g ctx h)) objs;
      let misses0 = Gam.read_misses g in
      (* The first object was evicted: re-reading it misses again. *)
      ignore (Gam.read g ctx (List.hd objs));
      Alcotest.(check bool) "evicted object re-faults" true
        (Gam.read_misses g > misses0))

let test_gam_mutex_serializes () =
  in_cluster (fun cluster ctx ->
      let backend = Gam.backend (Gam.create cluster) in
      let m = backend.Dsm.mutex_create ctx in
      let in_cs = ref 0 and max_cs = ref 0 in
      let hs =
        List.init 4 (fun i ->
            Dthread.spawn_on ctx ~node:i (fun w ->
                for _ = 1 to 5 do
                  backend.Dsm.mutex_lock w m;
                  incr in_cs;
                  max_cs := max !max_cs !in_cs;
                  Ctx.compute w ~cycles:1_000.0;
                  decr in_cs;
                  backend.Dsm.mutex_unlock w m
                done))
      in
      Dthread.join_all ctx hs;
      Alcotest.(check int) "exclusive" 1 !max_cs)

(* ------------------------------------------------------------------ *)
(* Grappa *)

let test_grappa_roundtrip () =
  in_cluster (fun cluster ctx ->
      let b = Grappa.backend (Grappa.create cluster) in
      let h = b.Dsm.alloc_on ctx ~node:2 ~size:128 (pack 3) in
      Alcotest.(check int) "read" 3 (unpack (b.Dsm.read ctx h));
      b.Dsm.write ctx h (pack 4);
      Alcotest.(check int) "after write" 4 (unpack (b.Dsm.read ctx h)))

let test_grappa_never_caches () =
  in_cluster (fun cluster ctx ->
      let b = Grappa.backend (Grappa.create cluster) in
      let h = b.Dsm.alloc_on ctx ~node:1 ~size:128 (pack 0) in
      let engine = Cluster.engine cluster in
      ignore (b.Dsm.read ctx h);
      Ctx.flush ctx;
      let t0 = Engine.now engine in
      ignore (b.Dsm.read ctx h);
      Ctx.flush ctx;
      (* The second read still crosses the network (no cache). *)
      Alcotest.(check bool) "still remote" true (Engine.now engine -. t0 > 5e-6))

let test_grappa_delegation_counter () =
  in_cluster (fun cluster ctx ->
      let g = Grappa.create cluster in
      let b = Grappa.backend g in
      let h = b.Dsm.alloc_on ctx ~node:1 ~size:64 (pack 0) in
      let before = Grappa.delegations g in
      ignore (b.Dsm.read ctx h);
      b.Dsm.write ctx h (pack 1);
      b.Dsm.update ctx h (fun v -> v);
      Alcotest.(check int) "three delegations" 3
        (Grappa.delegations g - before))

let test_grappa_process_serializes_per_object () =
  in_cluster (fun cluster ctx ->
      let b = Grappa.backend (Grappa.create cluster) in
      let h = b.Dsm.alloc_on ctx ~node:0 ~size:64 (pack 0) in
      let engine = Cluster.engine cluster in
      let t0 = Engine.now engine in
      (* Four concurrent 100 us computations against one object must run
         back to back at the home core. *)
      let hs =
        List.init 4 (fun i ->
            Dthread.spawn_on ctx ~node:i (fun w ->
                ignore (b.Dsm.process w h ~cycles:260_000.0)))
      in
      Dthread.join_all ctx hs;
      let dt = Engine.now engine -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f us >= 400 us (serialized)" (dt *. 1e6))
        true (dt >= 400e-6))

let test_grappa_adaptive_aggregation () =
  (* A busy sender's delegations wait far less in the aggregator than a
     sparse sender's. *)
  in_cluster (fun cluster ctx ->
      let b = Grappa.backend (Grappa.create cluster) in
      let h = b.Dsm.alloc_on ctx ~node:1 ~size:64 (pack 0) in
      let engine = Cluster.engine cluster in
      (* Sparse: first-ever delegation pays the flush timeout. *)
      Ctx.flush ctx;
      let t0 = Engine.now engine in
      ignore (b.Dsm.read ctx h);
      Ctx.flush ctx;
      let sparse = Engine.now engine -. t0 in
      (* Busy: eight concurrent clients on this node drive the (0,1)
         aggregation buffer; batches fill instead of timing out. *)
      let hs =
        List.init 8 (fun _ ->
            Dthread.spawn_on ctx ~node:0 (fun w ->
                for _ = 1 to 30 do
                  ignore (b.Dsm.read w h)
                done))
      in
      Dthread.join_all ctx hs;
      Ctx.flush ctx;
      let t1 = Engine.now engine in
      ignore (b.Dsm.read ctx h);
      Ctx.flush ctx;
      let busy = Engine.now engine -. t1 in
      Alcotest.(check bool)
        (Printf.sprintf "busy %.1fus < sparse %.1fus" (busy *. 1e6)
           (sparse *. 1e6))
        true
        (busy < 0.5 *. sparse))

let test_grappa_update_is_atomic () =
  in_cluster (fun cluster ctx ->
      let b = Grappa.backend (Grappa.create cluster) in
      let h = b.Dsm.alloc_on ctx ~node:0 ~size:64 (pack 0) in
      let hs =
        List.init 4 (fun i ->
            Dthread.spawn_on ctx ~node:i (fun w ->
                for _ = 1 to 25 do
                  b.Dsm.update w h (fun v -> pack (unpack v + 1))
                done))
      in
      Dthread.join_all ctx hs;
      Alcotest.(check int) "all increments applied" 100
        (unpack (b.Dsm.read ctx h)))

(* ------------------------------------------------------------------ *)
(* Cross-backend semantic equivalence on the Dsm interface *)

let backend_semantics system () =
  in_cluster (fun cluster ctx ->
      let backend = Simplan.make_backend system cluster in
      let h = backend.Dsm.alloc_on ctx ~node:1 ~size:256 (pack 10) in
      Alcotest.(check int) "read" 10 (unpack (backend.Dsm.read ctx h));
      backend.Dsm.write ctx h (pack 11);
      Alcotest.(check int) "write" 11 (unpack (backend.Dsm.read ctx h));
      backend.Dsm.update ctx h (fun v -> pack (unpack v + 1));
      Alcotest.(check int) "update" 12 (unpack (backend.Dsm.read ctx h));
      backend.Dsm.read_part ctx h ~bytes:64;
      Alcotest.(check int) "process returns value" 12
        (unpack (backend.Dsm.process ctx h ~cycles:100.0));
      backend.Dsm.process_update ctx h ~cycles:100.0 (fun v ->
          pack (unpack v * 2));
      Alcotest.(check int) "process_update" 24 (unpack (backend.Dsm.read ctx h));
      let m = backend.Dsm.mutex_create ctx in
      backend.Dsm.mutex_lock ctx m;
      backend.Dsm.mutex_unlock ctx m;
      backend.Dsm.free ctx h)

let test_foreign_handle_rejected () =
  in_cluster (fun cluster ctx ->
      let drust = Simplan.make_backend Simplan.Drust cluster in
      let gam = Simplan.make_backend Simplan.Gam cluster in
      let h = drust.Dsm.alloc ctx ~size:64 (pack 0) in
      Alcotest.(check bool) "foreign rejected" true
        (try
           ignore (gam.Dsm.read ctx h);
           false
         with Dsm.Foreign_handle _ -> true))

(* One 512-byte object homed on node 1, read_part from node 0 after
   [warm] reads: DRust then serves it from its cache, GAM from its
   faulted blocks, and Grappa delegates every call to the home. *)
let read_part_words ~warm make =
  let cluster = Cluster.create (small_params 2) in
  let b : Dsm.t = make cluster in
  let ctx0 = Ctx.make cluster ~node:0 and ctx1 = Ctx.make cluster ~node:1 in
  let h = ref None in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         let x = b.Dsm.alloc_on ctx1 ~node:1 ~size:512 (pack 0) in
         if warm then b.Dsm.read_part ctx0 x ~bytes:64;
         h := Some x));
  Cluster.run cluster;
  let h = Option.get !h in
  Alloc_budget.per_call (Cluster.engine cluster)
    ~run:(fun () -> Cluster.run cluster)
    (fun _ -> b.Dsm.read_part ctx0 h ~bytes:64)

let test_read_part_allocation b =
  Alloc_budget.check b "cached DRust read_part" ~max:1.0
    (read_part_words ~warm:true Drust_dsm.Drust_backend.create);
  Alloc_budget.check b "warm GAM read_part" ~max:1.0
    (read_part_words ~warm:true (fun c -> Gam.backend (Gam.create c)));
  Alloc_budget.check b "remote Grappa read_part" ~max:11.0
    (read_part_words ~warm:false (fun c -> Grappa.backend (Grappa.create c)))

(* DRust's write path on an object node 0 already owns: after the first
   call has moved it over, each borrows mutably, modifies in place,
   returns the borrow and computes, with no retry closure. *)
let test_process_update_allocation b =
  let cluster = Cluster.create (small_params 2) in
  let d = Drust_dsm.Drust_backend.create cluster in
  let ctx0 = Ctx.make cluster ~node:0 and ctx1 = Ctx.make cluster ~node:1 in
  let h = ref None in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         let x = d.Dsm.alloc_on ctx1 ~node:1 ~size:512 (pack 0) in
         d.Dsm.process_update ctx0 x ~cycles:100.0 Fun.id;
         h := Some x));
  Cluster.run cluster;
  let h = Option.get !h in
  Alloc_budget.check b "DRust process_update on a warm object" ~max:15.0
    (Alloc_budget.per_call (Cluster.engine cluster)
       ~run:(fun () -> Cluster.run cluster)
       (fun _ -> d.Dsm.process_update ctx0 h ~cycles:100.0 Fun.id))

(* A two-node ping-pong on one 512-byte GAM object homed on node 1:
   node 0 writes it, invalidating node 1's copy, then node 1 reads it
   back, recalling node 0's dirty blocks.  Every call runs GAM's
   directory rounds in both directions. *)
let test_gam_ping_pong_allocation b =
  let cluster = Cluster.create (small_params 2) in
  let d = Gam.backend (Gam.create cluster) in
  let ctx0 = Ctx.make cluster ~node:0 and ctx1 = Ctx.make cluster ~node:1 in
  let h = ref None in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         h := Some (d.Dsm.alloc_on ctx1 ~node:1 ~size:512 (pack 0))));
  Cluster.run cluster;
  let h = Option.get !h and v = pack 1 in
  Alloc_budget.check b "GAM two-node write+read ping-pong" ~max:72.0
    (Alloc_budget.per_call (Cluster.engine cluster)
       ~run:(fun () -> Cluster.run cluster)
       (fun _ ->
         d.Dsm.write ctx0 h v;
         ignore (d.Dsm.read ctx1 h)))

(* GAM's per-object costs at 8 nodes.  A block-aligned object's
   per-node cursor and residency arrays wait for its first fault or
   write, so an allocation is its handle and state alone.  A re-fault
   after an LRU eviction, run by a lone process whose fabric waits wake
   in place, costs the one queue cell that makes the object resident
   again: node 0 cycles through three 3 MiB objects homed on node 1,
   two of which fit its 6 MiB cache, so every read re-faults the object
   evicted two reads before. *)
let test_gam_object_allocation b =
  let cluster = Cluster.create (small_params 8) in
  let d = Gam.backend (Gam.create cluster) in
  let ctx0 = Ctx.make cluster ~node:0 and v = pack 0 in
  Alloc_budget.check b "GAM alloc_on of a block-aligned object, 8 nodes"
    ~max:17.0
    (Alloc_budget.per_call (Cluster.engine cluster)
       ~run:(fun () -> Cluster.run cluster)
       (fun _ -> ignore (d.Dsm.alloc_on ctx0 ~node:1 ~size:2048 v)));
  let objs =
    Array.init 3 (fun _ ->
        d.Dsm.alloc_on ctx0 ~node:1 ~size:(Drust_util.Units.mib 3) v)
  in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         Array.iter (fun h -> ignore (d.Dsm.read ctx0 h)) objs));
  Cluster.run cluster;
  Alloc_budget.check b "GAM re-fault after an LRU eviction" ~max:3.5
    (Alloc_budget.per_call ~n:3_000 (Cluster.engine cluster)
       ~run:(fun () -> Cluster.run cluster)
       (fun i -> ignore (d.Dsm.read ctx0 objs.(i mod 3))))

let () =
  Alcotest.run "baselines"
    [
      ( "gam",
        [
          Alcotest.test_case "roundtrip" `Quick test_gam_read_write_roundtrip;
          Alcotest.test_case "16us uncached read" `Quick
            test_gam_uncached_remote_read_costs_16us;
          Alcotest.test_case "second read hits" `Quick test_gam_second_read_hits;
          Alcotest.test_case "write invalidates" `Quick test_gam_write_invalidates_reader;
          Alcotest.test_case "false sharing" `Quick test_gam_false_sharing;
          Alcotest.test_case "free keeps neighbour state" `Quick
            test_gam_free_keeps_neighbour_state;
          Alcotest.test_case "spans blocks" `Quick test_gam_small_object_spans_blocks;
          Alcotest.test_case "bounded cache" `Quick test_gam_bounded_cache_evicts;
          Alcotest.test_case "ping-pong allocation budget" `Quick
            (Alloc_budget.case test_gam_ping_pong_allocation);
          Alcotest.test_case "object allocation budgets" `Quick
            (Alloc_budget.case test_gam_object_allocation);
          Alcotest.test_case "mutex serializes" `Quick test_gam_mutex_serializes;
        ] );
      ( "grappa",
        [
          Alcotest.test_case "roundtrip" `Quick test_grappa_roundtrip;
          Alcotest.test_case "never caches" `Quick test_grappa_never_caches;
          Alcotest.test_case "delegation counter" `Quick test_grappa_delegation_counter;
          Alcotest.test_case "per-object serialization" `Quick
            test_grappa_process_serializes_per_object;
          Alcotest.test_case "atomic update" `Quick test_grappa_update_is_atomic;
          Alcotest.test_case "adaptive aggregation" `Quick test_grappa_adaptive_aggregation;
        ] );
      ( "dsm-interface",
        [
          Alcotest.test_case "drust semantics" `Quick
            (backend_semantics Simplan.Drust);
          Alcotest.test_case "gam semantics" `Quick
            (backend_semantics Simplan.Gam);
          Alcotest.test_case "grappa semantics" `Quick
            (backend_semantics Simplan.Grappa);
          Alcotest.test_case "original semantics" `Quick
            (backend_semantics Simplan.Original);
          Alcotest.test_case "foreign handle" `Quick test_foreign_handle_rejected;
          Alcotest.test_case "read_part allocation budgets" `Quick
            (Alloc_budget.case test_read_part_allocation);
          Alcotest.test_case "drust process_update allocation budget" `Quick
            (Alloc_budget.case test_process_update_allocation);
        ] );
    ]
