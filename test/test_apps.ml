(* Tests for the four evaluation applications and the workload
   generators: each app must run to completion on every backend, conserve
   its operation counts, and show the qualitative behaviours the
   evaluation relies on (caching helps DRust, delegation hurts Grappa,
   affinity helps DataFrame). *)

module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Appkit = Drust_appkit.Appkit
module Simplan = Drust_plan.Simplan
module Ycsb = Drust_workloads.Ycsb
module Social_graph = Drust_workloads.Social_graph
module Df = Drust_dataframe.Dataframe
module Gm = Drust_gemm.Gemm
module Kv = Drust_kvstore.Kvstore
module Sn = Drust_socialnet.Socialnet

let tiny_params nodes =
  {
    Params.default with
    Params.nodes;
    cores_per_node = 4;
    mem_per_node = Drust_util.Units.mib 256;
  }

let tiny_df =
  {
    Df.default_config with
    Df.partitions = 16;
    chunk_bytes = Drust_util.Units.kib 32;
    index_entries = 32;
    queries = 2;
  }

let tiny_gemm =
  {
    Gm.default_config with
    Gm.grid = 4;
    block_bytes = Drust_util.Units.kib 16;
    strips = 8;
  }

let tiny_kv =
  {
    Kv.default_config with
    Kv.keys = 10_000;
    buckets = 512;
    ops = 800;
    clients_per_node = 4;
  }

let tiny_sn = { Sn.default_config with Sn.users = 200; requests = 400; clients_per_node = 4 }

let run_app ?(nodes = 4) system runner =
  let cluster = Cluster.create (tiny_params nodes) in
  let backend = Simplan.make_backend system cluster in
  runner ~cluster ~backend

(* ------------------------------------------------------------------ *)
(* Workload generators *)

let test_ycsb_mix () =
  let gen = Ycsb.create ~keys:1000 ~seed:5 () in
  let gets = ref 0 and total = 10_000 in
  for _ = 1 to total do
    match Ycsb.next gen with
    | Ycsb.Get _ -> incr gets
    | Ycsb.Set _ -> ()
    | Ycsb.Insert _ | Ycsb.Scan _ | Ycsb.Rmw _ ->
        Alcotest.fail "paper mix only emits Get/Set" 
  done;
  let ratio = Float.of_int !gets /. Float.of_int total in
  Alcotest.(check bool) "~90% gets" true (Float.abs (ratio -. 0.9) < 0.02)

let test_ycsb_keys_in_range () =
  let gen = Ycsb.create ~keys:50 ~seed:6 () in
  for _ = 1 to 1000 do
    let k =
      match Ycsb.next gen with
      | Ycsb.Get k | Ycsb.Set k | Ycsb.Insert k | Ycsb.Scan (k, _) | Ycsb.Rmw k
        -> k
    in
    Alcotest.(check bool) "range" true (k >= 0 && k < 50)
  done

let test_ycsb_shared_zipf () =
  let zipf = Drust_util.Zipf.create ~n:100 ~theta:0.9 in
  let a = Ycsb.with_zipf ~zipf ~get_ratio:0.5 ~seed:1 in
  let b = Ycsb.with_zipf ~zipf ~get_ratio:0.5 ~seed:2 in
  Alcotest.(check bool) "independent streams" true
    (List.init 20 (fun _ -> Ycsb.next a) <> List.init 20 (fun _ -> Ycsb.next b))

let test_social_graph_shape () =
  let g = Social_graph.create ~users:500 ~seed:3 () in
  let fanout u = List.length (Social_graph.followers g u) in
  (* Power law: user 0 has many more followers than user 400. *)
  Alcotest.(check bool) "skewed fanout" true (fanout 0 > 4 * fanout 400);
  let f = Social_graph.followers g 0 in
  Alcotest.(check bool) "bounded" true (List.length f <= 16);
  List.iter
    (fun u -> Alcotest.(check bool) "valid ids" true (u >= 0 && u < 500))
    f;
  Alcotest.(check bool) "memoized deterministic" true
    (Social_graph.followers g 0 == Social_graph.followers g 0)

(* ------------------------------------------------------------------ *)
(* Applications complete with the right op counts on every backend *)

let app_completes name runner expected_ops system () =
  let r = run_app system runner in
  Alcotest.(check (float 0.5)) (name ^ " ops") expected_ops r.Appkit.ops;
  Alcotest.(check bool) (name ^ " advanced time") true (r.Appkit.elapsed > 0.0);
  Alcotest.(check bool) (name ^ " positive throughput") true (r.Appkit.throughput > 0.0)

let df_runner ~cluster ~backend = Df.run ~cluster ~backend tiny_df
let gemm_runner ~cluster ~backend = Gm.run ~cluster ~backend tiny_gemm
let kv_runner ~cluster ~backend = Kv.run ~cluster ~backend tiny_kv
let sn_runner ~cluster ~backend = Sn.run ~cluster ~backend tiny_sn

let test_kv_get_fraction () =
  let r = run_app Simplan.Drust kv_runner in
  let gf = List.assoc "get_fraction" r.Appkit.extra in
  Alcotest.(check bool) "~0.9 gets" true (Float.abs (gf -. 0.9) < 0.05)

(* ------------------------------------------------------------------ *)
(* Qualitative behaviours the evaluation depends on *)

let test_drust_beats_grappa_on_gemm () =
  (* Caching vs re-delegation on a reuse-heavy workload. *)
  let d = run_app ~nodes:4 Simplan.Drust gemm_runner in
  let g = run_app ~nodes:4 Simplan.Grappa gemm_runner in
  Alcotest.(check bool)
    (Printf.sprintf "drust %.0f > grappa %.0f" d.Appkit.throughput
       g.Appkit.throughput)
    true
    (d.Appkit.throughput > g.Appkit.throughput)

let test_drust_single_node_overhead_small () =
  (* The paper: at most 2.42% slower than the original on one node. *)
  let params = { (tiny_params 1) with Params.cores_per_node = 8 } in
  let orig =
    let cluster = Cluster.create params in
    Kv.run ~cluster ~backend:(Simplan.make_backend Simplan.Original cluster) tiny_kv
  in
  let drust =
    let cluster = Cluster.create params in
    Kv.run ~cluster ~backend:(Simplan.make_backend Simplan.Drust cluster) tiny_kv
  in
  let overhead = 1.0 -. (drust.Appkit.throughput /. orig.Appkit.throughput) in
  Alcotest.(check bool)
    (Printf.sprintf "overhead %.2f%% < 5%%" (overhead *. 100.0))
    true (overhead < 0.05)

let test_dataframe_affinity_helps () =
  let plain =
    run_app ~nodes:4 Simplan.Drust (fun ~cluster ~backend ->
        Df.run ~cluster ~backend tiny_df)
  in
  let annotated =
    run_app ~nodes:4 Simplan.Drust (fun ~cluster ~backend ->
        Df.run ~cluster ~backend
          { tiny_df with Df.use_tbox = true; use_spawn_to = true })
  in
  Alcotest.(check bool) "annotations never hurt" true
    (annotated.Appkit.throughput >= 0.95 *. plain.Appkit.throughput)

let test_socialnet_dsm_beats_original () =
  (* Reference passing eliminates serialization. *)
  let orig =
    run_app ~nodes:2 Simplan.Original (fun ~cluster ~backend ->
        Sn.run ~cluster ~backend { tiny_sn with Sn.pass_by_value = true })
  in
  let drust = run_app ~nodes:2 Simplan.Drust sn_runner in
  Alcotest.(check bool) "drust faster" true
    (drust.Appkit.throughput > orig.Appkit.throughput)

(* Host words per KV operation on 2 nodes: a run of twice the ops less a
   run of the ops, so that the table build and the set-up cancel and
   each op's own words remain, its latency sample and its share of the
   percentile sort included.  YCSB A runs the update path as well: the
   bucket mutex and the DRust mutable borrow.  A sort that boxes its
   comparisons, a closure per lock attempt, write or spawn, or a cycle
   count computed per call through a [Dsm.t] field, which boxes it,
   shows here. *)
let kv_words_per_op system workload =
  let words ops =
    let cluster = Cluster.create (tiny_params 2) in
    let backend = Simplan.make_backend system cluster in
    let w0 = Gc.minor_words () in
    ignore (Kv.run ~cluster ~backend { tiny_kv with Kv.ops; workload });
    Gc.minor_words () -. w0
  in
  let ops = 4000 in
  (words (2 * ops) -. words ops) /. float_of_int ops

(* Host words per bucket of the KV table build on 2 nodes: a table of
   twice the buckets less one of the buckets, each serving one op per
   client, so that the set-up and the ops cancel.  Each bucket's object
   and its mutex on their home partition, the bucket record, and the
   context that pins the mutex to its node; the empty value and the
   mutex's unit payload are shared by every bucket. *)
let kv_words_per_bucket system =
  let words buckets =
    let cluster = Cluster.create (tiny_params 2) in
    let backend = Simplan.make_backend system cluster in
    let w0 = Gc.minor_words () in
    ignore (Kv.run ~cluster ~backend { tiny_kv with Kv.buckets; ops = 1 });
    Gc.minor_words () -. w0
  in
  let buckets = 4096 in
  (words (2 * buckets) -. words buckets) /. float_of_int buckets

let test_kv_allocation b =
  Alloc_budget.check b "KV op on Original" ~max:11.0
    (kv_words_per_op Simplan.Original None);
  Alloc_budget.check b "KV op on GAM" ~max:16.5
    (kv_words_per_op Simplan.Gam None);
  Alloc_budget.check b "KV op on Grappa" ~max:20.0
    (kv_words_per_op Simplan.Grappa None);
  Alloc_budget.check b "KV op on DRust, YCSB A" ~max:28.0
    (kv_words_per_op Simplan.Drust (Some Ycsb.A));
  Alloc_budget.check b "KV table build on DRust, per bucket" ~max:56.0
    (kv_words_per_bucket Simplan.Drust)

(* Host words per record of DataFrame's record loop on 2 nodes: a run
   with chunks of twice the records less a run with the records, so
   that the set-up, the index and the tasks cancel and each record's own
   words remain: its fragment reads of every source and its compute.
   The per-record cycle count is the same at both sizes.  A closure
   built per record shows here on every backend. *)
let df_words_per_record system =
  let chunk_bytes = tiny_df.Df.chunk_bytes in
  let words chunk_bytes =
    let cluster = Cluster.create (tiny_params 2) in
    let backend = Simplan.make_backend system cluster in
    let w0 = Gc.minor_words () in
    ignore (Df.run ~cluster ~backend { tiny_df with Df.chunk_bytes });
    Gc.minor_words () -. w0
  in
  let records =
    tiny_df.Df.partitions * tiny_df.Df.queries * chunk_bytes / 512
  in
  (words (2 * chunk_bytes) -. words chunk_bytes) /. float_of_int records

let test_dataframe_allocation b =
  List.iter
    (fun (system, max) ->
      Alloc_budget.check b
        (Printf.sprintf "DataFrame record on %s" (Simplan.system_name system))
        ~max (df_words_per_record system))
    [
      (Simplan.Drust, 2.5);
      (Simplan.Gam, 9.0);
      (Simplan.Grappa, 11.0);
      (Simplan.Original, 3.0);
    ]

let test_determinism () =
  (* Same seed, same cluster, same workload -> identical throughput. *)
  let a = run_app Simplan.Drust kv_runner in
  let b = run_app Simplan.Drust kv_runner in
  Alcotest.(check (float 1e-6)) "deterministic" a.Appkit.throughput b.Appkit.throughput

let () =
  let app_cases name runner ops =
    List.map
      (fun sys ->
        Alcotest.test_case
          (Printf.sprintf "%s on %s" name (Simplan.system_name sys))
          `Quick
          (app_completes name runner ops sys))
      [ Simplan.Drust; Simplan.Gam; Simplan.Grappa; Simplan.Original ]
  in
  Alcotest.run "apps"
    [
      ( "workloads",
        [
          Alcotest.test_case "ycsb mix" `Quick test_ycsb_mix;
          Alcotest.test_case "ycsb range" `Quick test_ycsb_keys_in_range;
          Alcotest.test_case "ycsb shared zipf" `Quick test_ycsb_shared_zipf;
          Alcotest.test_case "social graph" `Quick test_social_graph_shape;
        ] );
      ("dataframe", app_cases "dataframe" df_runner 2.0);
      ("gemm", app_cases "gemm" gemm_runner 64.0);
      ("kvstore", app_cases "kvstore" kv_runner 800.0);
      ("socialnet", app_cases "socialnet" sn_runner 400.0);
      ( "behaviour",
        [
          Alcotest.test_case "kv get fraction" `Quick test_kv_get_fraction;
          Alcotest.test_case "caching beats delegation" `Quick
            test_drust_beats_grappa_on_gemm;
          Alcotest.test_case "single-node overhead" `Quick
            test_drust_single_node_overhead_small;
          Alcotest.test_case "affinity helps" `Quick test_dataframe_affinity_helps;
          Alcotest.test_case "dsm beats serialization" `Quick
            test_socialnet_dsm_beats_original;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "kv allocation budget" `Quick
            (Alloc_budget.case test_kv_allocation);
          Alcotest.test_case "dataframe allocation budget" `Quick
            (Alloc_budget.case test_dataframe_allocation);
        ] );
    ]
