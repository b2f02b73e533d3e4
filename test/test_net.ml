(* Tests for the simulated RDMA fabric: verb latencies, cost model
   calibration, RPC handler semantics, and traffic counters. *)

module Engine = Drust_sim.Engine
module Model = Drust_net.Model
module Fabric = Drust_net.Fabric
module Metrics = Drust_obs.Metrics
module Flight = Drust_obs.Flight
module Rng = Drust_util.Rng

(* A fabric wired as [Cluster.create] wires one: its own registry, a
   (disabled) span tracer and a flight recorder ([flight], when given). *)
let make_fabric ?flight engine ~seed ~model ~nodes =
  let metrics = Metrics.create () in
  let flight =
    match flight with Some f -> f | None -> Flight.create ~metrics ~nodes ()
  in
  Fabric.create ~metrics
    ~spans:(Drust_obs.Span.create ~clock:(fun () -> Engine.now engine) ())
    ~flight ~engine ~rng:(Rng.create ~seed) ~model ~nodes

(* A fabric with jitter disabled so latencies are exact. *)
let quiet_fabric ?flight ?(nodes = 4) () =
  let engine = Engine.create () in
  let model = { Model.infiniband_40g with Model.jitter = 0.0 } in
  (engine, make_fabric ?flight engine ~seed:1 ~model ~nodes)

let run_in engine body =
  let out = ref None in
  ignore (Engine.spawn engine (fun () -> out := Some (body ())));
  Engine.run engine;
  match !out with Some v -> v | None -> Alcotest.fail "no result"

let checkf epsilon = Alcotest.check (Alcotest.float epsilon)

(* ------------------------------------------------------------------ *)
(* Model calibration *)

let test_oneside_512b_is_3_6us () =
  (* The paper's S3 measurement: 512 B over the wire is 3.6 us. *)
  checkf 1e-8 "3.6us" 3.6e-6 (Model.oneside_time Model.infiniband_40g ~bytes:512)

let test_transfer_time_scales () =
  let m = Model.infiniband_40g in
  checkf 1e-9 "1MB at 5GB/s" 2.097152e-4
    (Model.transfer_time m ~bytes:(Drust_util.Units.mib 1))

let test_twoside_slower_than_oneside () =
  let m = Model.infiniband_40g in
  Alcotest.(check bool) "receiver CPU costs" true
    (Model.twoside_time m ~bytes:64 > Model.oneside_time m ~bytes:64)

(* ------------------------------------------------------------------ *)
(* Fabric verbs *)

let test_rdma_read_latency () =
  let engine, fabric = quiet_fabric () in
  let elapsed =
    run_in engine (fun () ->
        let t0 = Engine.now engine in
        Fabric.rdma_read fabric ~from:0 ~target:1 ~bytes:512;
        Engine.now engine -. t0)
  in
  checkf 1e-8 "read latency" 3.6e-6 elapsed

let test_local_verb_cheap () =
  let engine, fabric = quiet_fabric () in
  let elapsed =
    run_in engine (fun () ->
        let t0 = Engine.now engine in
        Fabric.rdma_read fabric ~from:2 ~target:2 ~bytes:512;
        Engine.now engine -. t0)
  in
  Alcotest.(check bool) "loopback ~0.25us" true (elapsed < 0.5e-6)

let test_rpc_runs_handler_and_returns () =
  let engine, fabric = quiet_fabric () in
  let v =
    run_in engine (fun () ->
        Fabric.rpc fabric ~from:0 ~target:3 ~req_bytes:64 ~resp_bytes:64
          (fun () -> 41 + 1))
  in
  Alcotest.(check int) "handler result" 42 v

let test_rpc_latency_includes_both_legs () =
  let engine, fabric = quiet_fabric () in
  let elapsed =
    run_in engine (fun () ->
        let t0 = Engine.now engine in
        ignore
          (Fabric.rpc fabric ~from:0 ~target:1 ~req_bytes:0 ~resp_bytes:0
             (fun () -> ()));
        Engine.now engine -. t0)
  in
  checkf 1e-8 "two one-way legs" 9.0e-6 elapsed

let test_rdma_atomic_executes_at_target () =
  let engine, fabric = quiet_fabric () in
  let cell = ref 0 in
  let old =
    run_in engine (fun () ->
        Fabric.rdma_atomic fabric ~from:0 ~target:1 (fun () ->
            let v = !cell in
            cell := v + 1;
            v))
  in
  Alcotest.(check int) "faa old" 0 old;
  Alcotest.(check int) "faa applied" 1 !cell

let test_write_async_completion () =
  let engine, fabric = quiet_fabric () in
  let landed = ref (-1.0) in
  ignore
    (Engine.spawn engine (fun () ->
         Fabric.rdma_write_async fabric ~from:0 ~target:1 ~bytes:64 (fun () ->
             landed := Engine.now engine);
         (* Caller was not blocked: *)
         Alcotest.(check bool) "not blocked" true (Engine.now engine < 1e-9)));
  Engine.run engine;
  Alcotest.(check bool) "completion fired later" true (!landed > 3e-6)

let test_send_async_handler_can_block () =
  let engine, fabric = quiet_fabric () in
  let done_ = ref false in
  ignore
    (Engine.spawn engine (fun () ->
         Fabric.send_async fabric ~from:0 ~target:1 ~bytes:32 (fun () ->
             (* Handlers run as processes: blocking is allowed. *)
             Engine.delay engine 1e-6;
             done_ := true)));
  Engine.run engine;
  Alcotest.(check bool) "handler completed" true !done_

let test_counters () =
  (* Large enough that no ring wraps: every fabric event stays visible. *)
  let flight = Flight.create ~cap:1024 ~nodes:4 () in
  let engine, fabric = quiet_fabric ~flight () in
  let snapshot () = Metrics.snapshot (Fabric.metrics fabric) in
  let count ?(node = 0) snap name =
    match Metrics.find snap ~labels:[ ("node", string_of_int node) ] name with
    | Some (Metrics.Count n) -> n
    | _ -> Alcotest.failf "%s{node=%d} missing" name node
  in
  run_in engine (fun () ->
      Fabric.rdma_read fabric ~from:0 ~target:1 ~bytes:100;
      Fabric.rdma_write fabric ~from:0 ~target:2 ~bytes:50;
      ignore
        (Fabric.rpc fabric ~from:0 ~target:1 ~req_bytes:10 ~resp_bytes:20
           (fun () -> ()));
      Fabric.rdma_read fabric ~from:0 ~target:0 ~bytes:10);
  let before = snapshot () in
  Alcotest.(check int) "reads" 2 (count before "fabric.reads");
  Alcotest.(check int) "writes" 1 (count before "fabric.writes");
  Alcotest.(check int) "rpcs" 1 (count before "fabric.rpcs");
  Alcotest.(check int) "remote ops exclude loopback" 3
    (count before "fabric.remote_ops");
  Alcotest.(check int) "bytes" 190 (count before "fabric.bytes_out");
  (* A later phase reads its own traffic as a diff against the first:
     the verbs not yet issued, then a fault plan's drops, timeout,
     retry and stale epoch. *)
  let plan =
    Drust_sim.Fault.create ~engine ~rng:(Rng.create ~seed:2) ~flight ~nodes:4
  in
  run_in engine (fun () ->
      Fabric.rdma_read fabric ~from:0 ~target:1 ~bytes:8;
      Alcotest.(check int) "atomic result" 7
        (Fabric.rdma_atomic fabric ~from:0 ~target:1 (fun () -> 7));
      Fabric.rdma_write_async fabric ~from:0 ~target:2 ~bytes:64 ignore;
      Fabric.send_async fabric ~from:0 ~target:3 ~bytes:32 ignore;
      Fabric.set_fault_plan fabric plan;
      let now = Engine.now engine in
      Drust_sim.Fault.crash_at plan ~node:2 ~at:now;
      Drust_sim.Fault.partition_at plan ~group:[ 3 ] ~at:now ~heal_at:1.0;
      (* Lost sync RPC: a drop, then the timeout. *)
      (match
         Fabric.rpc_with_timeout fabric ~from:0 ~target:3 ~req_bytes:8
           ~resp_bytes:8 ~timeout:1e-3 ignore
       with
      | () -> Alcotest.fail "expected Rpc_timeout"
      | exception Fabric.Rpc_timeout _ -> ());
      (* Lost async WRITE: a drop, no exception. *)
      Fabric.rdma_write_async fabric ~from:0 ~target:2 ~bytes:64 ignore;
      (* A dead target, retried once and given up on. *)
      (match
         Fabric.retry_with_backoff fabric ~from:0 ~attempts:2 (fun () ->
             Fabric.rdma_read fabric ~from:0 ~target:2 ~bytes:8)
       with
      | () -> Alcotest.fail "expected Node_down"
      | exception Fabric.Node_down 2 -> ());
      (* A verb carrying an epoch older than the current view. *)
      Fabric.set_epoch_source fabric (Some (fun () -> 5));
      match Fabric.rdma_write fabric ~epoch:4 ~from:0 ~target:1 ~bytes:8 with
      | () -> Alcotest.fail "expected Stale_epoch"
      | exception Fabric.Stale_epoch _ -> ());
  let phase = Metrics.diff ~before ~after:(snapshot ()) in
  List.iter
    (fun (name, n) -> Alcotest.(check int) ("phase " ^ name) n (count phase name))
    [
      ("fabric.reads", 3); ("fabric.writes", 3); ("fabric.atomics", 1);
      ("fabric.rpcs", 2); ("fabric.drops", 2); ("fabric.timeouts", 1);
      ("fabric.retries", 1); ("fabric.stale_epochs", 1);
    ];
  (* Every fabric event is one counter bump and one flight record of
     the same kind on the issuing node (a SEND counts as an RPC). *)
  let counter_of kind =
    if kind = Flight.k_fab_read then "fabric.reads"
    else if kind = Flight.k_fab_write then "fabric.writes"
    else if kind = Flight.k_fab_atomic then "fabric.atomics"
    else if kind = Flight.k_fab_rpc || kind = Flight.k_fab_send then
      "fabric.rpcs"
    else if kind = Flight.k_fab_timeout then "fabric.timeouts"
    else if kind = Flight.k_fab_retry then "fabric.retries"
    else if kind = Flight.k_fab_drop then "fabric.drops"
    else "fabric.stale_epochs"
  in
  let fabric_events =
    List.filter
      (fun e ->
        e.Flight.ev_kind >= Flight.k_fab_read
        && e.Flight.ev_kind <= Flight.k_fab_stale_epoch)
      (Flight.events flight)
  in
  let final = snapshot () in
  for node = 0 to 3 do
    Alcotest.(check bool) "ring did not wrap" true
      (Flight.recorded flight ~node <= Flight.capacity flight);
    for kind = Flight.k_fab_read to Flight.k_fab_stale_epoch do
      let name = counter_of kind in
      let records =
        List.length
          (List.filter
             (fun e ->
               e.Flight.ev_node = node && counter_of e.Flight.ev_kind = name)
             fabric_events)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s{node=%d} = its flight records" name node)
        records (count ~node final name)
    done
  done

let test_jitter_bounded () =
  let engine = Engine.create () in
  let fabric = make_fabric engine ~seed:3 ~model:Model.infiniband_40g ~nodes:2 in
  let base = Model.oneside_time Model.infiniband_40g ~bytes:512 in
  ignore
    (Engine.spawn engine (fun () ->
         for _ = 1 to 200 do
           let t0 = Engine.now engine in
           Fabric.rdma_read fabric ~from:0 ~target:1 ~bytes:512;
           let dt = Engine.now engine -. t0 in
           Alcotest.(check bool) "within clamp" true
             (dt >= 0.5 *. base && dt <= 2.0 *. base)
         done));
  Engine.run engine

let test_nic_egress_serializes_bulk () =
  let engine, fabric = quiet_fabric () in
  let finish = ref [] in
  (* Two 1 MiB reads pulling from the same node must queue at its NIC
     (~0.21 s of wire time each at 5 GB/s... scaled: 0.21 ms). *)
  for _ = 1 to 2 do
    ignore
      (Engine.spawn engine (fun () ->
           Fabric.rdma_read fabric ~from:0 ~target:1
             ~bytes:(Drust_util.Units.mib 1);
           finish := Engine.now engine :: !finish))
  done;
  Engine.run engine;
  let times = List.sort compare !finish in
  (match times with
  | [ first; second ] ->
      Alcotest.(check bool) "second waits for the wire" true
        (second -. first > 1.5e-4)
  | _ -> Alcotest.fail "expected two completions");
  (* Different sources do not contend. *)
  let engine2, fabric2 = quiet_fabric () in
  let finish2 = ref [] in
  List.iter
    (fun target ->
      ignore
        (Engine.spawn engine2 (fun () ->
             Fabric.rdma_read fabric2 ~from:0 ~target
               ~bytes:(Drust_util.Units.mib 1);
             finish2 := Engine.now engine2 :: !finish2)))
    [ 1; 2 ];
  Engine.run engine2;
  match List.sort compare !finish2 with
  | [ a; b ] ->
      Alcotest.(check bool) "parallel from distinct NICs" true (b -. a < 1e-5)
  | _ -> Alcotest.fail "expected two completions"

let test_small_messages_skip_nic () =
  let engine, fabric = quiet_fabric () in
  let finish = ref [] in
  for _ = 1 to 4 do
    ignore
      (Engine.spawn engine (fun () ->
           Fabric.rdma_read fabric ~from:0 ~target:1 ~bytes:64;
           finish := Engine.now engine :: !finish))
  done;
  Engine.run engine;
  (* All four complete at (virtually) the same time: no queuing. *)
  match (List.sort compare !finish : float list) with
  | first :: rest ->
      List.iter
        (fun t ->
          Alcotest.(check bool) "no serialization" true (t -. first < 1e-6))
        rest
  | [] -> Alcotest.fail "no completions"

(* Async deliveries take one queue entry each and dispatch in posting
   order within an instant.  The pinned log is what the fabric produced
   for this scenario when it could still coalesce same-edge deliveries
   into shared queue entries, with and without coalescing: ten writes on
   edge 0->1 at one instant, with another edge and a send_async posted
   between them. *)
let test_async_delivery_order () =
  let engine, fabric = quiet_fabric () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now engine) :: !log in
  ignore
    (Engine.spawn engine (fun () ->
         for i = 0 to 4 do
           Fabric.rdma_write_async fabric ~from:0 ~target:1 ~bytes:256 (note i)
         done;
         Fabric.rdma_write_async fabric ~from:2 ~target:3 ~bytes:256 (note 100);
         Fabric.send_async fabric ~from:0 ~target:1 ~bytes:64 (note 200);
         for i = 5 to 9 do
           Fabric.rdma_write_async fabric ~from:0 ~target:1 ~bytes:256 (note i)
         done));
  Engine.run engine;
  let write = 0x1.dca24d8a5beaep-19 (* 3.5512 us: 256 B one-sided *)
  and send = 0x1.2ed9504b9971ep-18 (* 4.5128 us: 64 B two-sided *) in
  Alcotest.(check (list (pair int (float 0.0))))
    "callback order and timestamps"
    (List.map (fun tag -> (tag, write)) [ 0; 1; 2; 3; 4; 100; 5; 6; 7; 8; 9 ]
    @ [ (200, send) ])
    (List.rev !log);
  (* One entry for the posting process plus one per delivery. *)
  Alcotest.(check int) "one queue push per delivery" 13 (Engine.pushes engine);
  Alcotest.(check int) "one logical event per push" 13 (Engine.dispatched engine)

let test_bad_node_rejected () =
  let engine, fabric = quiet_fabric () in
  ignore engine;
  Alcotest.(check bool) "out of range" true
    (try
       Fabric.rdma_read fabric ~from:0 ~target:9 ~bytes:1;
       false
     with Invalid_argument _ -> true)

(* Untraced verbs on 2 nodes with the testbed's jitter: the verb, its
   latency draws and the engine's wakeups, and nothing else. *)
let test_verb_allocation () =
  let verb_words f =
    let engine = Engine.create () in
    let fabric =
      make_fabric engine ~seed:1 ~model:Model.infiniband_40g ~nodes:2
    in
    Alloc_budget.per_call engine
      ~run:(fun () -> Engine.run engine)
      (fun _ -> f fabric)
  in
  Alloc_budget.check "Fabric.rpc" ~max:9.0
    (verb_words (fun fabric ->
         Fabric.rpc fabric ~from:0 ~target:1 ~req_bytes:64 ~resp_bytes:64
           ignore));
  Alloc_budget.check "Fabric.rdma_read" ~max:5.0
    (verb_words (fun fabric ->
         Fabric.rdma_read fabric ~from:0 ~target:1 ~bytes:64))

let () =
  Alcotest.run "net"
    [
      ( "model",
        [
          Alcotest.test_case "512B = 3.6us" `Quick test_oneside_512b_is_3_6us;
          Alcotest.test_case "transfer scales" `Quick test_transfer_time_scales;
          Alcotest.test_case "twoside > oneside" `Quick test_twoside_slower_than_oneside;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "read latency" `Quick test_rdma_read_latency;
          Alcotest.test_case "local verb" `Quick test_local_verb_cheap;
          Alcotest.test_case "rpc result" `Quick test_rpc_runs_handler_and_returns;
          Alcotest.test_case "rpc latency" `Quick test_rpc_latency_includes_both_legs;
          Alcotest.test_case "atomic" `Quick test_rdma_atomic_executes_at_target;
          Alcotest.test_case "write async" `Quick test_write_async_completion;
          Alcotest.test_case "send async blocks ok" `Quick test_send_async_handler_can_block;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "jitter bounded" `Quick test_jitter_bounded;
          Alcotest.test_case "nic egress serializes" `Quick
            test_nic_egress_serializes_bulk;
          Alcotest.test_case "small msgs skip nic" `Quick
            test_small_messages_skip_nic;
          Alcotest.test_case "async delivery order" `Quick
            test_async_delivery_order;
          Alcotest.test_case "bad node" `Quick test_bad_node_rejected;
          Alcotest.test_case "verb allocation budget" `Quick
            test_verb_allocation;
        ] );
    ]
