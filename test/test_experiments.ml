(* Integration tests at the experiment-harness level: the headline shapes
   of the paper's evaluation must hold when the harness runs its (scaled)
   experiments.  These are the repository's "does the reproduction still
   reproduce?" guard rails. *)

module E = Drust_experiments
module B = E.Bench_setup
module Simplan = Drust_plan.Simplan
module Appkit = Drust_appkit.Appkit

(* ------------------------------------------------------------------ *)
(* Parallel sweep runner *)

let test_parallel_results_independent_of_jobs () =
  let thunks () = List.init 17 (fun i () -> (i * i) + 1) in
  let seq = E.Parallel.run ~jobs:1 (thunks ()) in
  let par = E.Parallel.run ~jobs:4 (thunks ()) in
  Alcotest.(check (list int)) "same results, same order" seq par

let test_parallel_submission_order () =
  let r = E.Parallel.map ~jobs:4 (fun i -> 10 * i) [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  Alcotest.(check (list int)) "submission order" [ 30; 10; 40; 10; 50; 90; 20; 60 ] r

let test_parallel_error_propagation () =
  (* The earliest-submitted failure is the one re-raised, regardless of
     which domain hits its exception first. *)
  let boom i = Failure (Printf.sprintf "job %d" i) in
  let thunks =
    List.init 8 (fun i () -> if i = 2 || i = 5 then raise (boom i) else i)
  in
  (match E.Parallel.run ~jobs:4 thunks with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg -> Alcotest.(check string) "earliest job" "job 2" msg);
  Alcotest.(check bool) "jobs must be positive" true
    (try
       ignore (E.Parallel.run ~jobs:0 [ (fun () -> ()) ]);
       false
     with Invalid_argument _ -> true)

let test_parallel_cluster_sweep_deterministic () =
  (* Full simulated clusters on separate domains: the sweep's numbers
     must be exactly the sequential ones. *)
  let sweep jobs =
    E.Parallel.map ~jobs
      (fun nodes ->
        let r =
          B.run_app Simplan.Kvstore_app Simplan.Drust ~params:(B.testbed ~nodes ())
        in
        (r.Appkit.ops, r.Appkit.elapsed))
      [ 1; 2; 4 ]
  in
  let seq = sweep 1 in
  let par = sweep 4 in
  List.iter2
    (fun (o1, e1) (o2, e2) ->
      Alcotest.(check (float 0.0)) "ops bit-identical" o1 o2;
      Alcotest.(check (float 0.0)) "elapsed bit-identical" e1 e2)
    seq par

(* ------------------------------------------------------------------ *)
(* Report rate registry and baseline cache *)

let test_rates_ordered_collection () =
  let probe = "test/rates/probe" and probe2 = "test/rates/probe2" in
  E.Report.record_rate ~experiment:probe ~ops:10.0 ~elapsed:2.0 ();
  E.Report.record_rate ~experiment:probe2 ~ops:9.0 ~elapsed:3.0 ();
  (* Re-recording overwrites the value without duplicating the entry. *)
  E.Report.record_rate ~experiment:probe ~ops:20.0 ~elapsed:2.0 ();
  let rates = E.Report.recorded_rates () in
  Alcotest.(check int) "no duplicate" 1
    (List.length (List.filter (fun (k, _) -> String.equal k probe) rates));
  Alcotest.(check (float 1e-9)) "overwritten" 10.0 (List.assoc probe rates);
  Alcotest.(check (float 1e-9)) "second entry kept" 3.0 (List.assoc probe2 rates);
  (* Non-positive elapsed is ignored. *)
  E.Report.record_rate ~experiment:"test/rates/zero" ~ops:1.0 ~elapsed:0.0 ();
  Alcotest.(check bool) "zero elapsed ignored" false
    (List.mem_assoc "test/rates/zero" (E.Report.recorded_rates ()));
  (* The returned registry is name-sorted: order of recording cannot
     change the summary. *)
  let names = List.map fst rates in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names

let test_baseline_cache_keyed_on_config () =
  (* Two different parameter sets must not share a memo entry — the
     regression was a cache keyed on the app alone. *)
  let p1 = B.testbed ~nodes:1 () in
  let p2 = B.testbed ~nodes:2 () in
  let r1 = B.single_node_baseline ~params:p1 Simplan.Kvstore_app in
  let r2 = B.single_node_baseline ~params:p2 Simplan.Kvstore_app in
  let r1' = B.single_node_baseline ~params:p1 Simplan.Kvstore_app in
  Alcotest.(check (float 0.0)) "memo hit is identical" r1.Appkit.ops r1'.Appkit.ops;
  Alcotest.(check bool) "different params, different entries" true
    (r1.Appkit.elapsed <> r2.Appkit.elapsed
    || r1.Appkit.throughput <> r2.Appkit.throughput)

(* ------------------------------------------------------------------ *)
(* Bench summary: v2 roundtrip, v1 compatibility, regression detection *)

let with_temp_file f =
  let path = Filename.temp_file "bench_summary" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_summary path =
  match E.Report.read_bench_summary ~path with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* A latency histogram with a known shape. *)
let sample_latency () =
  let m = Drust_obs.Metrics.create () in
  let h = Drust_obs.Metrics.histogram m ~unit_:"s" "test.lat" in
  List.iter (Drust_obs.Metrics.observe h) [ 1e-6; 2e-6; 5e-6; 1e-5; 1e-4 ];
  match Drust_obs.Metrics.find (Drust_obs.Metrics.snapshot m) "test.lat" with
  | Some (Drust_obs.Metrics.Histo hs) -> hs
  | _ -> Alcotest.fail "sample histogram missing"

let test_summary_v2_roundtrip () =
  let latency = sample_latency () in
  E.Report.record_rate ~latency ~experiment:"test/summary/v2" ~ops:1000.0
    ~elapsed:2.0 ();
  with_temp_file (fun path ->
      E.Report.write_bench_summary ~path;
      let s = read_summary path in
      Alcotest.(check string) "schema" E.Report.schema_version
        s.E.Report.sm_schema;
      let entry = List.assoc "test/summary/v2" s.E.Report.sm_entries in
      Alcotest.(check (float 1e-6)) "rate" 500.0 entry.E.Report.se_rate;
      (* Every percentile point survives the roundtrip, monotonically. *)
      let pct name = List.assoc name entry.E.Report.se_latency_us in
      Alcotest.(check (list string)) "percentile points"
        [ "p50"; "p95"; "p99"; "p99.9" ]
        (List.map fst entry.E.Report.se_latency_us);
      List.iter
        (fun (name, us) ->
          let q =
            float_of_string (String.sub name 1 (String.length name - 1))
            /. 100.0
          in
          let written =
            1e6 *. Option.get (Drust_obs.Metrics.quantile latency q)
          in
          Alcotest.(check (float 1e-3))
            (Printf.sprintf "%s roundtrips" name)
            written us)
        entry.E.Report.se_latency_us;
      Alcotest.(check bool) "p50 <= p99" true (pct "p50" <= pct "p99");
      (* And the file diffed against itself is regression-free. *)
      Alcotest.(check (list string)) "self-diff clean" []
        (E.Report.compare_summaries ~baseline:s s))

let test_summary_v3_host_roundtrip () =
  (* host_ms survives a write/read roundtrip, but only when host-time
     recording is on — a plain run must stay machine-independent. *)
  E.Report.record_rate ~host_ms:123.5 ~experiment:"test/summary/host-off"
    ~ops:10.0 ~elapsed:1.0 ();
  E.Report.set_host_time_recording true;
  Fun.protect
    ~finally:(fun () -> E.Report.set_host_time_recording false)
    (fun () ->
      E.Report.record_rate ~host_ms:123.5 ~experiment:"test/summary/host-on"
        ~ops:10.0 ~elapsed:1.0 ());
  with_temp_file (fun path ->
      E.Report.write_bench_summary ~path;
      let s = read_summary path in
      Alcotest.(check string) "v3 schema" "drust-bench-summary/v3"
        s.E.Report.sm_schema;
      let e name = List.assoc name s.E.Report.sm_entries in
      Alcotest.(check (option (float 1e-9))) "host_ms roundtrips"
        (Some 123.5)
        (e "test/summary/host-on").E.Report.se_host_ms;
      Alcotest.(check (option (float 1e-9))) "host_ms dropped when off" None
        (e "test/summary/host-off").E.Report.se_host_ms;
      Alcotest.(check (list string)) "self-diff clean" []
        (E.Report.compare_summaries ~baseline:s s))

(* The reader is strict: only v3, no unknown or duplicate keys, every
   field of its type.  Each input is rejected with an [Error] naming the
   file, never an exception. *)
let test_summary_malformed_rejected () =
  let v3 entries =
    Printf.sprintf {|{ "schema": "drust-bench-summary/v3", "entries": %s }|}
      entries
  in
  List.iter
    (fun (what, text) ->
      with_temp_file (fun path ->
          Out_channel.with_open_text path (fun oc -> output_string oc text);
          match E.Report.read_bench_summary ~path with
          | Ok _ -> Alcotest.failf "accepted %s" what
          | Error m ->
              if not (String.starts_with ~prefix:(path ^ ": ") m) then
                Alcotest.failf "%s: error %S does not name the file" what m
          | exception e ->
              Alcotest.failf "%s raised %s" what (Printexc.to_string e)))
    [
      ("malformed JSON", "{ nope");
      ("an unknown schema", {|{ "schema": "who-knows/v9", "entries": {} }|});
      ( "the retired v2 schema",
        {|{ "schema": "drust-bench-summary/v2", "entries": {} }|} );
      ("an unknown key", v3 {|{ "a": { "ops_per_sim_sec": 1, "host_s": 2 } }|});
      ( "a duplicate key",
        v3 {|{ "a": { "ops_per_sim_sec": 1 }, "a": { "ops_per_sim_sec": 2 } }|} );
      ( "a wrongly typed host_ms",
        v3 {|{ "a": { "ops_per_sim_sec": 1, "host_ms": "slow" } }|} );
      ( "a wrongly typed percentile",
        v3 {|{ "a": { "ops_per_sim_sec": 1, "latency_us": { "p50": "fast" } } }|} );
      ("an entry that is not an object", v3 {|{ "a": 12 }|});
      ("entries that are not an object", v3 "[]");
    ]

let test_summary_regression_detection () =
  let entry ?host_ms ?host_rate rate p99 =
    {
      E.Report.se_rate = rate;
      se_latency_us = [ ("p50", 1.0); ("p99", p99) ];
      se_host_ms = host_ms;
      se_host_rate = host_rate;
    }
  in
  let summary entries =
    { E.Report.sm_schema = E.Report.schema_version; sm_entries = entries }
  in
  let baseline = summary [ ("a", entry 100.0 10.0); ("b", entry 50.0 5.0) ] in
  (* Within tolerance: an 8% throughput dip and an 8% latency rise pass
     at the default 10%. *)
  let ok = summary [ ("a", entry 92.0 10.8); ("b", entry 50.0 5.0) ] in
  Alcotest.(check (list string)) "within tolerance" []
    (E.Report.compare_summaries ~baseline ok);
  (* A >= 10% throughput drop is flagged... *)
  let slow = summary [ ("a", entry 89.0 10.0); ("b", entry 50.0 5.0) ] in
  Alcotest.(check int) "throughput regression" 1
    (List.length (E.Report.compare_summaries ~baseline slow));
  (* ...so is a >= 10% latency-percentile rise... *)
  let lat = summary [ ("a", entry 100.0 11.5); ("b", entry 50.0 5.0) ] in
  Alcotest.(check int) "latency regression" 1
    (List.length (E.Report.compare_summaries ~baseline lat));
  (* ...and a vanished baseline entry.  New entries never fail. *)
  let missing = summary [ ("a", entry 100.0 10.0); ("c", entry 9.0 1.0) ] in
  Alcotest.(check int) "missing entry" 1
    (List.length (E.Report.compare_summaries ~baseline missing));
  (* A looser tolerance clears the marginal cases. *)
  Alcotest.(check (list string)) "tolerance widens the gate" []
    (E.Report.compare_summaries ~tolerance:0.2 ~baseline slow
    @ E.Report.compare_summaries ~tolerance:0.2 ~baseline lat);
  (* Host time gates only on a blowup past the loose default (200%):
     2.9x passes, 3.1x fails, and an entry without host_ms on either
     side is never compared. *)
  let hb = summary [ ("a", entry ~host_ms:100.0 100.0 10.0) ] in
  let h_noisy = summary [ ("a", entry ~host_ms:290.0 100.0 10.0) ] in
  Alcotest.(check (list string)) "host noise tolerated" []
    (E.Report.compare_summaries ~baseline:hb h_noisy);
  let h_blown = summary [ ("a", entry ~host_ms:310.0 100.0 10.0) ] in
  Alcotest.(check int) "host blowup flagged" 1
    (List.length (E.Report.compare_summaries ~baseline:hb h_blown));
  Alcotest.(check (list string)) "--tolerance-host widens the host gate" []
    (E.Report.compare_summaries ~tolerance_host:4.0 ~baseline:hb h_blown);
  let h_absent = summary [ ("a", entry 100.0 10.0) ] in
  Alcotest.(check (list string)) "absent host_ms never compared" []
    (E.Report.compare_summaries ~baseline:hb h_absent
    @ E.Report.compare_summaries ~baseline:h_absent h_blown);
  (* Host engine throughput gates in the lower-is-worse direction with
     the same loose tolerance: a 2.9x slowdown passes, 3.1x fails. *)
  let rb = summary [ ("a", entry ~host_rate:3.0e6 100.0 10.0) ] in
  let r_noisy = summary [ ("a", entry ~host_rate:1.05e6 100.0 10.0) ] in
  Alcotest.(check (list string)) "host rate noise tolerated" []
    (E.Report.compare_summaries ~baseline:rb r_noisy);
  let r_blown = summary [ ("a", entry ~host_rate:0.95e6 100.0 10.0) ] in
  Alcotest.(check int) "host rate collapse flagged" 1
    (List.length (E.Report.compare_summaries ~baseline:rb r_blown));
  Alcotest.(check (list string)) "tolerance-host widens the rate gate" []
    (E.Report.compare_summaries ~tolerance_host:4.0 ~baseline:rb r_blown)

(* [(phase, samples, p50, p99)] of each phase histogram, in seconds: the
   quantiles [Chaos.percentile_table] prints. *)
let percentiles =
  List.map (fun (phase, h) ->
      let qv q = Option.value (Drust_obs.Metrics.quantile h q) ~default:nan in
      (phase, h.Drust_obs.Metrics.h_count, qv 0.5, qv 0.99))

(* Both chaos experiments reduce their phase samples through the one
   shared path: [phases] -> [Chaos.phase_histos] -> the quantiles. *)
let test_failover_percentiles_shape () =
  let module Scenario = Drust_plan.Scenario in
  let mk seed detection recovery : Scenario.failover_result =
    {
      seed;
      victim = 1;
      crash_time = 1.0;
      detection_time = Option.map (fun d -> 1.0 +. d) detection;
      recovery_time = Option.map (fun r -> 1.0 +. r) recovery;
      curve = [||];
      bucket = 0.1;
      total_ops = 0;
      failed_ops = 0;
      retries = 0;
      timeouts = 0;
      drops = 0;
      op_latency = None;
    }
  in
  let results =
    [
      mk 1 (Some 0.002) (Some 0.004);
      mk 2 (Some 0.003) (Some 0.006);
      mk 3 (Some 0.012) (Some 0.030);
      mk 4 None None;
      (* never detected: excluded from the samples *)
    ]
  in
  let histos = E.Chaos.phase_histos (E.Failover.phases results) in
  let pct = percentiles histos in
  let phase name = List.find (fun (p, _, _, _) -> String.equal p name) pct in
  let _, n_det, p50_det, p99_det = phase "detection" in
  let _, n_rec, p50_rec, p99_rec = phase "recovery" in
  Alcotest.(check int) "3 detection samples" 3 n_det;
  Alcotest.(check int) "3 recovery samples" 3 n_rec;
  Alcotest.(check bool) "detection p99 >= p50" true (p99_det >= p50_det);
  Alcotest.(check bool) "recovery p99 >= p50" true (p99_rec >= p50_rec);
  Alcotest.(check bool) "recovery slower than detection" true
    (p50_rec >= p50_det);
  (* The p99 lands in the bucket of the 12ms / 30ms outliers. *)
  Alcotest.(check bool) "detection tail visible" true (p99_det > 0.005);
  Alcotest.(check bool) "recovery tail visible" true (p99_rec > 0.01);
  (* Churn's phase set: handoff durations plus per-victim detection and
     recovery latencies, pooled across runs in run order. *)
  let churn handoff_latency detection recovery : Scenario.churn_result =
    {
      seed = 1;
      nodes = 16;
      total_ops = 0;
      failed_ops = 0;
      lost_writes = 0;
      unreadable_keys = 0;
      joins = 0;
      leaves = 0;
      handoff_commits = 0;
      handoff_aborts = 0;
      final_epoch = 0;
      stale_epochs = 0;
      retries = 0;
      crashes = [];
      detection;
      recovery;
      handoff_latency;
      unrecoverable = [];
      op_latency = None;
    }
  in
  let runs =
    [
      churn [ 0.001; 0.002 ] [ (3, 0.004) ] [ (3, 0.010) ];
      churn [ 0.003 ] [ (5, 0.005); (9, 0.040) ] [];
    ]
  in
  let samples = E.Churn.phases runs in
  Alcotest.(check (list (pair string (list (float 0.0)))))
    "churn samples in run order"
    [
      ("handoff", [ 0.001; 0.002; 0.003 ]);
      ("detection", [ 0.004; 0.005; 0.040 ]);
      ("recovery", [ 0.010 ]);
    ]
    samples;
  let churn_histos = E.Chaos.phase_histos samples in
  List.iter
    (fun (p, n, p50, p99) ->
      let h = List.assoc p churn_histos in
      Alcotest.(check int) (p ^ " histogram holds every sample")
        h.Drust_obs.Metrics.h_count n;
      Alcotest.(check bool) (p ^ " p99 >= p50") true (p99 >= p50))
    (percentiles churn_histos);
  Alcotest.(check (list int)) "churn sample counts" [ 3; 3; 1 ]
    (List.map (fun (_, n, _, _) -> n) (percentiles churn_histos));
  let no_recovery = [ churn [ 0.001 ] [ (3, 0.004) ] [] ] in
  Alcotest.check_raises "an empty phase fails the table"
    (Failure "Churn: no recovery latency samples") (fun () ->
      E.Chaos.percentile_table ~experiment:"Churn" ~count:"samples"
        (E.Chaos.phase_histos (E.Churn.phases no_recovery)));
  (* The determinism check compares latency histograms bit for bit:
     an empty one (nan min/max) equals itself. *)
  let empty =
    List.assoc "recovery" (E.Chaos.phase_histos [ ("recovery", []) ])
  in
  Alcotest.(check bool) "empty histogram equals itself" true
    (E.Chaos.same_latency (Some empty) (Some empty));
  Alcotest.(check bool) "different histograms differ" false
    (E.Chaos.same_latency (Some empty)
       (Some (List.assoc "handoff" churn_histos)))

(* ------------------------------------------------------------------ *)
(* Motivation (S3) *)

let test_motivation_breakdown () =
  let r = E.Motivation.run () in
  Alcotest.(check bool)
    (Printf.sprintf "GAM read %.1fus in [13,19]" (r.E.Motivation.gam_total *. 1e6))
    true
    (r.E.Motivation.gam_total > 13e-6 && r.E.Motivation.gam_total < 19e-6);
  Alcotest.(check bool) "coherence fraction ~77%" true
    (r.E.Motivation.coherence_fraction > 0.70
    && r.E.Motivation.coherence_fraction < 0.82);
  Alcotest.(check bool) "DRust read near wire time" true
    (r.E.Motivation.drust_total < 1.5 *. r.E.Motivation.wire_time)

(* ------------------------------------------------------------------ *)
(* Table 2 *)

let test_table2_shape () =
  let rows = E.Table2.run ~seed:11 () in
  let find l = List.find (fun r -> String.equal r.E.Table2.label l) rows in
  let drust = find "DRust" and rust = find "Rust" in
  (* DRust adds a small constant overhead over plain Rust. *)
  let delta = drust.E.Table2.average -. rust.E.Table2.average in
  Alcotest.(check bool)
    (Printf.sprintf "check overhead %.0f cycles in [25, 40]" delta)
    true
    (delta > 25.0 && delta < 40.0);
  (* Within 10% of the paper's Rust row. *)
  Alcotest.(check bool) "avg near 364" true
    (Float.abs (rust.E.Table2.average -. 364.0) < 36.0);
  Alcotest.(check bool) "median near 332" true
    (Float.abs (rust.E.Table2.median -. 332.0) < 33.0);
  Alcotest.(check bool) "p90 near 496" true
    (Float.abs (rust.E.Table2.p90 -. 496.0) < 50.0)

(* ------------------------------------------------------------------ *)
(* Fig 5 headline shapes (scaled-down runs: just 1 and 8 nodes) *)

let speedup app system nodes =
  let base = B.single_node_baseline app in
  let r = B.run_app app system ~params:(B.testbed ~nodes ()) in
  r.Appkit.throughput /. base.Appkit.throughput

let test_fig5_kv_ordering () =
  let drust = speedup Simplan.Kvstore_app Simplan.Drust 8 in
  let gam = speedup Simplan.Kvstore_app Simplan.Gam 8 in
  let grappa = speedup Simplan.Kvstore_app Simplan.Grappa 8 in
  Alcotest.(check bool)
    (Printf.sprintf "DRust %.2f > GAM %.2f > Grappa %.2f" drust gam grappa)
    true
    (drust > gam && gam > grappa);
  Alcotest.(check bool) "DRust gains from scale" true (drust > 2.0);
  Alcotest.(check bool) "Grappa stays near/below original" true (grappa < 1.3)

let test_fig5_gemm_ordering () =
  let drust = speedup Simplan.Gemm_app Simplan.Drust 8 in
  let grappa = speedup Simplan.Gemm_app Simplan.Grappa 8 in
  Alcotest.(check bool) "DRust scales well" true (drust > 5.0);
  Alcotest.(check bool) "Grappa can't cache" true (drust > 2.0 *. grappa)

let test_fig5_dataframe_ordering () =
  let drust = speedup Simplan.Dataframe_app Simplan.Drust 8 in
  let gam = speedup Simplan.Dataframe_app Simplan.Gam 8 in
  let grappa = speedup Simplan.Dataframe_app Simplan.Grappa 8 in
  Alcotest.(check bool)
    (Printf.sprintf "DRust %.2f > GAM %.2f > Grappa %.2f" drust gam grappa)
    true
    (drust > gam && gam > grappa)

let test_fig5_single_node_overhead () =
  (* DRust on one node stays within a few percent of the original. *)
  List.iter
    (fun app ->
      let s = speedup app Simplan.Drust 1 in
      Alcotest.(check bool)
        (Printf.sprintf "%s 1-node %.3f >= 0.95" (Simplan.app_name app) s)
        true (s >= 0.95))
    [ Simplan.Dataframe_app; Simplan.Gemm_app; Simplan.Kvstore_app ]

(* ------------------------------------------------------------------ *)
(* Fig 6 / Fig 7 *)

let test_fig6_monotone () =
  let rows = E.Fig6.run () in
  match rows with
  | [ plain; tbox; both ] ->
      Alcotest.(check bool) "tbox ~ plain (no regression)" true
        (tbox.E.Fig6.vs_plain >= 0.97);
      Alcotest.(check bool) "both > plain" true (both.E.Fig6.vs_plain > 1.02);
      Alcotest.(check bool) "plain is the reference" true
        (Float.abs (plain.E.Fig6.vs_plain -. 1.0) < 1e-6)
  | _ -> Alcotest.fail "expected three variants"

let test_fig7_drust_cheapest () =
  let rows = E.Fig7.run () in
  List.iter
    (fun app ->
      let overhead system =
        let r =
          List.find
            (fun x -> x.E.Fig7.app = app && x.E.Fig7.system = system)
            rows
        in
        r.E.Fig7.overhead
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: DRust %.2f < GAM %.2f and < Grappa %.2f"
           (Simplan.app_name app) (overhead Simplan.Drust) (overhead Simplan.Gam)
           (overhead Simplan.Grappa))
        true
        (overhead Simplan.Drust < overhead Simplan.Gam
        && overhead Simplan.Drust < overhead Simplan.Grappa))
    [ Simplan.Dataframe_app; Simplan.Gemm_app; Simplan.Kvstore_app ]

(* ------------------------------------------------------------------ *)
(* YCSB extension: DRust's lead tracks the read share (the S6 limitation
   made quantitative) *)

let test_ycsb_suite_shape () =
  let rows = E.Ycsb_suite.run () in
  let drust w =
    (List.find
       (fun r -> r.E.Ycsb_suite.workload = w && r.E.Ycsb_suite.system = Simplan.Drust)
       rows)
      .E.Ycsb_suite.speedup
  in
  let module Y = Drust_workloads.Ycsb in
  Alcotest.(check bool) "read-only best" true
    (drust Y.C >= drust Y.B && drust Y.B > drust Y.A);
  Alcotest.(check bool) "RMW degenerates" true (drust Y.F < 1.5);
  Alcotest.(check bool) "read-mostly scales" true (drust Y.B > 3.0)

(* ------------------------------------------------------------------ *)
(* Migration drill-down *)

let test_migration_drilldown () =
  let r = E.Migration.run () in
  Alcotest.(check int) "15 threads" 15 r.E.Migration.migrations;
  Alcotest.(check bool)
    (Printf.sprintf "avg %.0fus within 2x of 218us"
       (r.E.Migration.average_latency *. 1e6))
    true
    (r.E.Migration.average_latency > 109e-6
    && r.E.Migration.average_latency < 436e-6);
  Alcotest.(check bool) "controller rebalanced the overload" true
    (r.E.Migration.controller_migrations > 0)

(* ------------------------------------------------------------------ *)
(* Ablations *)

let test_ablation_directions () =
  let rows = E.Ablation.run () in
  let value variant =
    (List.find (fun r -> String.equal r.E.Ablation.variant variant) rows)
      .E.Ablation.value
  in
  Alcotest.(check bool) "coloring beats always-move" true
    (value "pointer coloring (default)" < value "always-move (ablated)");
  Alcotest.(check bool) "TBox batch beats pointer chase" true
    (value "TBox (batched)" < value "plain Box (chase)" /. 5.0);
  Alcotest.(check bool) "1-sided lock beats 2-sided" true
    (value "DRust 1-sided CAS" < value "GAM-style 2-sided RPC")

let () =
  Alcotest.run "experiments"
    [
      ( "parallel",
        [
          Alcotest.test_case "jobs 1 == jobs 4" `Quick
            test_parallel_results_independent_of_jobs;
          Alcotest.test_case "submission order" `Quick
            test_parallel_submission_order;
          Alcotest.test_case "first error wins" `Quick
            test_parallel_error_propagation;
          Alcotest.test_case "cluster sweep" `Quick
            test_parallel_cluster_sweep_deterministic;
        ] );
      ( "report",
        [
          Alcotest.test_case "rates ordered and overwrite" `Quick
            test_rates_ordered_collection;
          Alcotest.test_case "baseline keyed on config" `Quick
            test_baseline_cache_keyed_on_config;
        ] );
      ( "bench-summary",
        [
          Alcotest.test_case "v2 roundtrip" `Quick test_summary_v2_roundtrip;
          Alcotest.test_case "v3 host_ms roundtrip" `Quick
            test_summary_v3_host_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick
            test_summary_malformed_rejected;
          Alcotest.test_case "regression detection" `Quick
            test_summary_regression_detection;
          Alcotest.test_case "failover percentiles" `Quick
            test_failover_percentiles_shape;
        ] );
      ( "motivation",
        [ Alcotest.test_case "S3 breakdown" `Quick test_motivation_breakdown ] );
      ("table2", [ Alcotest.test_case "deref shape" `Quick test_table2_shape ]);
      ( "fig5",
        [
          Alcotest.test_case "kv ordering" `Slow test_fig5_kv_ordering;
          Alcotest.test_case "gemm ordering" `Slow test_fig5_gemm_ordering;
          Alcotest.test_case "dataframe ordering" `Slow test_fig5_dataframe_ordering;
          Alcotest.test_case "single-node overhead" `Slow test_fig5_single_node_overhead;
        ] );
      ( "fig6-fig7",
        [
          Alcotest.test_case "fig6 monotone" `Slow test_fig6_monotone;
          Alcotest.test_case "fig7 drust cheapest" `Slow test_fig7_drust_cheapest;
        ] );
      ( "drilldowns",
        [
          Alcotest.test_case "migration" `Quick test_migration_drilldown;
          Alcotest.test_case "ablations" `Quick test_ablation_directions;
          Alcotest.test_case "ycsb suite shape" `Slow test_ycsb_suite_shape;
        ] );
    ]
