(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DRust, OSDI'24) from the simulator, and runs Bechamel
   microbenchmarks of the hot protocol paths.

   Usage:
     dune exec bench/main.exe                        # everything
     dune exec bench/main.exe -- fig5 table2         # selected experiments
     dune exec bench/main.exe -- fig5 --out results  # + CSV files
     dune exec bench/main.exe -- fig5 --jobs 4       # parallel sweep pool
     dune exec bench/main.exe -- fig5 --emit-plan p.json   # + plan artifact
     dune exec bench/main.exe -- --plan p.json       # replay a suite plan
     dune exec bench/main.exe -- fuzz --fuzz-count 25 --fuzz-seed 1

   --jobs N fans independent experiment configurations out over N
   domains (default 1); output is byte-identical for every N (see
   docs/BENCHMARKS.md).

   Experiments: motivation fig5 fig6 fig7 table1 table2 migration
                ablation traffic ycsb latency failover churn trace
                profile micro fuzz

   The plan-replayable experiments dispatch through
   Drust_experiments.Runner — the same table --plan replay uses, which
   is what makes a replayed run byte-identical to the direct one (see
   docs/SIMPLAN.md).  trace/profile/micro are host-side diagnostics and
   stay CLI-only; fuzz is the seeded SimPlan fuzzer (Drust_plan.Fuzz).

   --churn-nodes N sets the churn experiment's cluster size (default
   64; the @churn CI alias runs it at 16).

   --host-time records each gated experiment's host wall-clock cost as
   a host_ms field in BENCH_summary.json (schema v3), which @bench-diff
   gates with a loose tolerance; off by default so plain summaries stay
   machine-independent and byte-identical across --jobs values.

   The [trace] experiment re-runs GEMM on DRust with the span tracer
   enabled and writes a Chrome trace_event JSON (Perfetto-loadable) plus
   a JSONL metrics dump; set DRUST_TRACE=<prefix> to choose the output
   path prefix (default "drust-trace").  The [profile] experiment runs
   the same traced workload through the critical-path profiler: a
   per-segment time breakdown, the top-10 critical paths, and a Chrome
   trace with cross-node flow arrows (prefix default "drust-profile"). *)

module E = Drust_experiments
module Simplan = Drust_plan.Simplan
module Fuzz = Drust_plan.Fuzz
module Flight = Drust_obs.Flight

(* ------------------------------------------------------------------ *)
(* Trace output resolution: --trace-out PATH is the one spelling shared
   with bin/drust_sim.exe; the DRUST_TRACE environment variable stays as
   a legacy alias.  Both name a path prefix (a trailing .trace.json or
   .json is stripped), and naming both with different values is a usage
   error. *)

let trace_out = ref None

let env_trace () =
  match Sys.getenv_opt "DRUST_TRACE" with
  | Some p when p <> "" && p <> "0" && p <> "1" -> Some p
  | _ -> None

let trace_prefix ~default =
  match !trace_out with
  | Some p -> p
  | None -> ( match env_trace () with Some p -> p | None -> default)

(* ------------------------------------------------------------------ *)
(* Observability demo: one traced run, exported for Perfetto.          *)

let run_trace () =
  let module B = E.Bench_setup in
  let module Cluster = Drust_machine.Cluster in
  let module Metrics = Drust_obs.Metrics in
  let module Span = Drust_obs.Span in
  E.Report.section "Observability: traced GEMM on DRust (4 nodes)";
  let prefix = trace_prefix ~default:"drust-trace" in
  let params = B.testbed ~nodes:4 () in
  let cluster = Cluster.create params in
  let spans = Cluster.spans cluster in
  Span.enable spans;
  let before = Metrics.snapshot (Cluster.metrics cluster) in
  let backend = B.make_backend B.Drust cluster in
  let r =
    Drust_gemm.Gemm.run ~cluster ~backend Drust_gemm.Gemm.default_config
  in
  let after = Metrics.snapshot (Cluster.metrics cluster) in
  E.Report.note
    (Printf.sprintf "GEMM: %.0f ops in %.6f virtual s"
       r.Drust_appkit.Appkit.ops r.Drust_appkit.Appkit.elapsed);
  E.Report.metrics_table (Metrics.diff ~before ~after);
  List.iter
    (fun (cat, st) ->
      E.Report.note
        (Printf.sprintf "spans[%-10s] %6d complete, %.6f virtual s total" cat
           st.Span.d_count st.Span.d_total))
    (Span.duration_stats spans);
  let trace_path = prefix ^ ".trace.json" in
  let metrics_path = prefix ^ ".metrics.jsonl" in
  Drust_obs.Export.write_chrome_trace ~path:trace_path spans;
  Drust_obs.Export.write_metrics_jsonl ~time:(Cluster.now cluster)
    ~path:metrics_path after;
  E.Report.note
    (Printf.sprintf "%d trace events -> %s (load in ui.perfetto.dev)"
       (Span.count spans) trace_path);
  E.Report.note (Printf.sprintf "metrics snapshot -> %s" metrics_path)

(* ------------------------------------------------------------------ *)
(* Critical-path profile: traced GEMM, causally assembled.             *)

let run_profile () =
  let module B = E.Bench_setup in
  let module Cluster = Drust_machine.Cluster in
  let module Span = Drust_obs.Span in
  let module Cp = Drust_obs.Critical_path in
  E.Report.section "Profile: critical paths of traced GEMM on DRust (4 nodes)";
  let prefix = trace_prefix ~default:"drust-profile" in
  let params = B.testbed ~nodes:4 () in
  let cluster = Cluster.create params in
  let spans = Cluster.spans cluster in
  Span.enable spans;
  let backend = B.make_backend B.Drust cluster in
  let r =
    Drust_gemm.Gemm.run ~cluster ~backend Drust_gemm.Gemm.default_config
  in
  E.Report.note
    (Printf.sprintf "GEMM: %.0f ops in %.6f virtual s"
       r.Drust_appkit.Appkit.ops r.Drust_appkit.Appkit.elapsed);
  let events = Span.events spans in
  let paths = Cp.analyze events in
  (* Where did the virtual time go, across every profiled operation? *)
  let totals =
    List.map
      (fun seg ->
        ( seg,
          List.fold_left
            (fun acc p -> acc +. List.assoc seg p.Cp.segments)
            0.0 paths ))
      Cp.all_segments
  in
  let grand = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 totals in
  E.Report.table
    ~header:[ "segment"; "total (us)"; "share" ]
    ~rows:
      (List.map
         (fun (seg, d) ->
           [
             Cp.segment_name seg;
             Printf.sprintf "%.3f" (d *. 1e6);
             (if grand > 0.0 then E.Report.cell_pct (d /. grand) else "-");
           ])
         totals);
  E.Report.note
    (Printf.sprintf "%d operation(s) profiled; top critical paths:"
       (List.length paths));
  print_string (Cp.report ~k:10 events);
  let trace_path = prefix ^ ".trace.json" in
  Drust_obs.Export.write_chrome_trace ~path:trace_path spans;
  E.Report.note
    (Printf.sprintf
       "%d trace events (with cross-node flow arrows) -> %s (load in \
        ui.perfetto.dev)"
       (Span.count spans) trace_path);
  (* Host engine throughput: dispatched events per wall-clock second,
     untraced (the zero-allocation fast path) and traced.  Wall-clock
     numbers are machine-dependent, so they go to stderr — stdout must
     stay byte-identical across machines and runs (docs/PERFORMANCE.md
     explains how to read these). *)
  Printf.eprintf "host engine throughput (wall-clock, machine-dependent):\n";
  let host_measure ~label ~traced =
    let cluster = Cluster.create (B.testbed ~nodes:4 ()) in
    if traced then Span.enable (Cluster.spans cluster);
    let backend = B.make_backend B.Drust cluster in
    let t0 =
      (Unix.gettimeofday ()
      [@dlint.allow
        "determinism: the profile host section is explicitly wall-clock \
         and machine-dependent; it prints to stderr only"])
    in
    ignore
      (Drust_gemm.Gemm.run ~cluster ~backend Drust_gemm.Gemm.default_config);
    let dt =
      (Unix.gettimeofday () -. t0
      [@dlint.allow
        "determinism: the profile host section is explicitly wall-clock \
         and machine-dependent; it prints to stderr only"])
    in
    let engine = Cluster.engine cluster in
    let n = Drust_sim.Engine.dispatched engine in
    Printf.eprintf "  %-18s %9d events (%d suspends) in %6.3f s = %.3g events/s\n"
      label n
      (Drust_sim.Engine.suspends engine)
      dt
      (float_of_int n /. dt);
    (n, dt)
  in
  let n_untraced, dt_untraced =
    host_measure ~label:"gemm/4n untraced" ~traced:false
  in
  ignore (host_measure ~label:"gemm/4n traced" ~traced:true);
  (* Headline summary entry: the deterministic virtual-time rate, plus —
     under --host-time only — the untraced engine throughput in events
     per host second, so @bench-diff gates engine performance with the
     loose host tolerance (docs/PERFORMANCE.md). *)
  E.Report.record_rate
    ~host_ms:(dt_untraced *. 1000.0)
    ~host_rate:(float_of_int n_untraced /. dt_untraced)
    ~experiment:"profile/gemm" ~ops:r.Drust_appkit.Appkit.ops
    ~elapsed:r.Drust_appkit.Appkit.elapsed ()

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: wall-clock cost and minor-heap words of the
   hot OCaml paths behind each experiment — one Test.make per
   table/figure family.                                                *)

(* Simulated operations measured [micro_batch] at a time, in one process
   spawned per run, so the spawn's own cost is spread over the batch;
   the report divides their estimates by the batch, so every row is the
   cost of one operation. *)
let micro_batch = 1000

let batched_names = [ "drust/net:fabric-rpc"; "drust/fig5:drust-cached-read" ]

let batched ~name engine ~run op =
  Bechamel.Test.make ~name
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Drust_sim.Engine.spawn engine (fun () ->
                for _ = 1 to micro_batch do
                  op ()
                done));
         run ()))

let bechamel_tests () =
  let open Bechamel in
  let rng = Drust_util.Rng.create ~seed:7 in
  let deref_model =
    Test.make ~name:"table2:deref-cost-model" (Staged.stage (fun () ->
        ignore (Drust_core.Deref_cost.sample rng Drust_core.Deref_cost.Drust_box)))
  in
  let gaddr_ops =
    Test.make ~name:"protocol:gaddr-color-ops" (Staged.stage (fun () ->
        let g = Drust_memory.Gaddr.make ~node:3 ~offset:4096 in
        let g = Drust_memory.Gaddr.with_color g 7 in
        ignore (Drust_memory.Gaddr.clear_color (Drust_memory.Gaddr.bump_color g))))
  in
  let cache_ops =
    let cache = Drust_memory.Cache.create ~node:0 () in
    let tag : int Drust_util.Univ.tag = Drust_util.Univ.create_tag ~name:"b" in
    let g = Drust_memory.Gaddr.make ~node:1 ~offset:64 in
    let copy = Drust_memory.Cache.insert cache g ~size:64 (Drust_util.Univ.pack tag 1) in
    ignore copy;
    Test.make ~name:"fig5:cache-lookup" (Staged.stage (fun () ->
        ignore (Drust_memory.Cache.lookup cache g)))
  in
  let engine_event =
    Test.make ~name:"sim:schedule-and-step" (Staged.stage (fun () ->
        let e = Drust_sim.Engine.create () in
        Drust_sim.Engine.schedule e ~at:1.0 (fun () -> ());
        ignore (Drust_sim.Engine.step e)))
  in
  let protocol_epoch =
    Test.make ~name:"fig6:protocol-local-write-epoch" (Staged.stage (fun () ->
        let params =
          { Drust_machine.Params.default with Drust_machine.Params.nodes = 1 }
        in
        let cluster = Drust_machine.Cluster.create params in
        ignore
          (Drust_sim.Engine.spawn
             (Drust_machine.Cluster.engine cluster)
             (fun () ->
               let ctx = Drust_machine.Ctx.make cluster ~node:0 in
               let o =
                 Drust_core.Protocol.create ctx ~size:64
                   (Drust_util.Univ.pack
                      (Drust_util.Univ.create_tag ~name:"x")
                      0)
               in
               Drust_core.Protocol.owner_write ctx o
                 (Drust_util.Univ.pack (Drust_util.Univ.create_tag ~name:"y") 1)));
        Drust_machine.Cluster.run cluster))
  in
  (* One untraced two-sided verb between two nodes, jitter included. *)
  let fabric_rpc =
    let params = E.Bench_setup.testbed ~nodes:2 () in
    let cluster = Drust_machine.Cluster.create params in
    let fabric = Drust_machine.Cluster.fabric cluster in
    batched ~name:"net:fabric-rpc"
      (Drust_machine.Cluster.engine cluster)
      ~run:(fun () -> Drust_machine.Cluster.run cluster)
      (fun () ->
        Drust_net.Fabric.rpc fabric ~from:0 ~target:1 ~req_bytes:64
          ~resp_bytes:64 ignore)
  in
  (* A DRust read served from the reader's cache: borrow, deref, drop. *)
  let drust_cached_read =
    let params = E.Bench_setup.testbed ~nodes:2 () in
    let cluster = Drust_machine.Cluster.create params in
    let backend = Drust_dsm.Drust_backend.create cluster in
    let reader = Drust_machine.Ctx.make cluster ~node:0 in
    let home = Drust_machine.Ctx.make cluster ~node:1 in
    let h = ref None in
    ignore
      (Drust_sim.Engine.spawn
         (Drust_machine.Cluster.engine cluster)
         (fun () ->
           let x =
             backend.Drust_dsm.Dsm.alloc_on home ~node:1 ~size:512
               Drust_appkit.Appkit.blob
           in
           backend.Drust_dsm.Dsm.read_part reader x ~bytes:64;
           h := Some x));
    Drust_machine.Cluster.run cluster;
    let h = Option.get !h in
    batched ~name:"fig5:drust-cached-read"
      (Drust_machine.Cluster.engine cluster)
      ~run:(fun () -> Drust_machine.Cluster.run cluster)
      (fun () -> backend.Drust_dsm.Dsm.read_part reader h ~bytes:64)
  in
  Test.make_grouped ~name:"drust"
    [
      deref_model; gaddr_ops; cache_ops; engine_event; protocol_epoch;
      fabric_rpc; drust_cached_read;
    ]

(* Minor-heap words, read exactly.  Bechamel's own
   [Toolkit.Instance.minor_allocated] reads [Gc.quick_stat], whose
   minor-word count only advances at minor collections on OCaml 5: a
   run of a few dozen words mostly reads as 0, which biases its
   estimates.  [Gc.minor_words] counts up to the last allocation. *)
module Minor_words = struct
  type witness = unit

  let label () = "minor-words"
  let unit () = "words"
  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
end

let run_micro () =
  print_newline ();
  print_endline
    "=== Bechamel microbenchmarks (host wall-clock, minor-heap words) ===";
  let open Bechamel in
  let minor_words =
    Measure.instance
      (module Minor_words)
      (Measure.register (module Minor_words))
  in
  let instances = [ Toolkit.Instance.monotonic_clock; minor_words ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  (* Simple per-test mean report (avoids the notty TTY renderer, which
     does not work when output is piped to a file). *)
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let ns = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let words = Analyze.all ols minor_words raw in
  let per_op name result =
    match Analyze.OLS.estimates result with
    | Some [ est ] ->
        Some
          (if List.mem name batched_names then est /. float_of_int micro_batch
           else est)
    | Some _ | None -> None
  in
  (* Name-sorted, not bucket-ordered: the report is part of stdout. *)
  Drust_util.Tables.sorted_bindings ns ~cmp:String.compare
  |> List.iter (fun (name, result) ->
         let w =
           match Hashtbl.find_opt words name with
           | Some r -> per_op name r
           | None -> None
         in
         match (per_op name result, w) with
         | Some t, Some w ->
             Printf.printf "  %-40s %10.1f ns/run %8.1f words/run\n" name t w
         | Some t, None -> Printf.printf "  %-40s %10.1f ns/run\n" name t
         | None, _ -> Printf.printf "  %-40s (no estimate)\n" name)

(* CLI-only diagnostics: host-side, not described by a suite plan. *)
let local_experiments =
  [ ("trace", run_trace); ("profile", run_profile); ("micro", run_micro) ]

let all_names = E.Runner.names @ List.map fst local_experiments @ [ "fuzz" ]

(* ------------------------------------------------------------------ *)
(* Post-mortem forensics: reconstruct timelines from a *.flight.json
   dump alone — no re-run, no plan, no cluster (docs/FORENSICS.md).    *)

let run_forensics ~object_ path =
  let d =
    match Flight.load ~path with
    | Ok d -> d
    | Error e ->
        Printf.eprintf "bench: forensics: %s\n" e;
        exit 2
  in
  Printf.printf "=== flight dump: %s ===\n" d.Flight.dm_label;
  Printf.printf "reason: %s\n" d.Flight.dm_reason;
  Printf.printf "nodes: %d  ring: %d events/node  t=%.9f\n" d.Flight.dm_nodes
    d.Flight.dm_ring d.Flight.dm_time;
  let addr = match object_ with Some a -> Some a | None -> d.Flight.dm_object in
  (match addr with
  | Some a ->
      Printf.printf "\n--- object timeline: 0x%x ---\n" a;
      let lines = Flight.explain_object ~object_:a d.Flight.dm_events in
      if lines = [] then
        print_endline "(no events about this object in the retained rings)"
      else List.iter print_endline lines
  | None ->
      print_endline "(no offending object recorded; pass --object ADDR)");
  for node = 0 to d.Flight.dm_nodes - 1 do
    let lines = Flight.render_last d.Flight.dm_events ~node in
    if lines <> [] then begin
      Printf.printf "\n--- node %d: last %d event(s) before the dump ---\n"
        node (List.length lines);
      List.iter print_endline lines
    end
  done

(* ------------------------------------------------------------------ *)
(* Seeded SimPlan fuzzing: sample valid plans, execute each under a
   local sanitizer, greedily shrink any failure to a minimal plan.     *)

let run_fuzz ~count ~seed ~max_nodes ~out_dir () =
  E.Report.section
    (Printf.sprintf "Fuzz: %d seeded SimPlans (seed %d, <= %d nodes)" count
       seed max_nodes);
  (* Route flight auto-dumps (from oracle runs and shrink probes alike)
     next to the plan artifacts. *)
  let dump_dir =
    match out_dir with Some d -> d | None -> Filename.current_dir_name
  in
  Flight.set_dump_dir (Some dump_dir);
  let plans = Fuzz.plans ~seed ~count ~max_nodes in
  (* Oracle fan-out is the expensive phase; each plan executes on its
     own cluster with its own local sanitizer, so the verdicts are
     independent and Parallel.map keeps their order — stdout below is
     byte-identical for every --jobs value. *)
  let verdicts = E.Parallel.map Fuzz.default_oracle plans in
  let failures =
    List.filter
      (fun (_, v) -> Fuzz.is_failure v)
      (List.combine plans verdicts)
  in
  E.Report.note
    (Printf.sprintf "%d/%d plans passed the sanitized oracle"
       (count - List.length failures)
       count);
  (* Shrinking is sequential: each step's candidate choice depends on
     the previous verdict, and failures should be rare. *)
  let dir = dump_dir in
  List.iteri
    (fun i ((plan : Simplan.t), verdict) ->
      let shrunk, shrunk_verdict = Fuzz.shrink ~oracle:Fuzz.default_oracle plan in
      E.Report.note
        (Printf.sprintf "FAIL %d: %s — %s" i plan.Simplan.name
           (Fuzz.verdict_to_string verdict));
      E.Report.note
        (Printf.sprintf "  shrunk to %s — %s" shrunk.Simplan.name
           (Fuzz.verdict_to_string shrunk_verdict));
      let path name suffix =
        Filename.concat dir (name ^ suffix ^ ".plan.json")
      in
      Simplan.save ~path:(path plan.Simplan.name "") plan;
      Simplan.save ~path:(path plan.Simplan.name ".shrunk") shrunk;
      (* One sanitized re-execution of the minimal repro, relabeled so
         its auto-dump lands as <name>.shrunk.flight.json — the forensic
         twin of <name>.shrunk.plan.json.  The failure is expected; both
         DSan violations and crashes write the dump before we get here. *)
      let relabeled =
        { shrunk with Simplan.name = shrunk.Simplan.name ^ ".shrunk" }
      in
      (try ignore (Simplan.execute ~sanitize:true relabeled)
       with _ -> ());
      let dump = Filename.concat dir (relabeled.Simplan.name ^ ".flight.json") in
      Printf.eprintf "[fuzz] failing plan -> %s (minimal: %s%s)\n%!"
        (path plan.Simplan.name "")
        (path plan.Simplan.name ".shrunk")
        (if Sys.file_exists dump then ", flight dump: " ^ dump else ""))
    failures;
  if failures <> [] then begin
    Printf.eprintf "fuzz: %d failing plan(s); minimal repros written\n"
      (List.length failures);
    exit 4
  end

(* ------------------------------------------------------------------ *)

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n" msg;
      Printf.eprintf "experiments: %s\n" (String.concat " " all_names);
      Printf.eprintf "commands: forensics DUMP.flight.json [--object ADDR]\n";
      Printf.eprintf
        "flags: --out DIR | --jobs N | --sanitize | --host-time | \
         --churn-nodes N | --trace-out PATH | --plan FILE | --emit-plan FILE \
         | --fuzz-count N | --fuzz-seed N | --fuzz-max-nodes N\n";
      exit 2)
    fmt

(* The plan name baked into an --emit-plan artifact: the file stem. *)
let plan_name_of_path path =
  let base = Filename.basename path in
  let base =
    match Filename.chop_suffix_opt ~suffix:".json" base with
    | Some b -> b
    | None -> base
  in
  let base =
    match Filename.chop_suffix_opt ~suffix:".plan" base with
    | Some b -> b
    | None -> base
  in
  if base = "" then "suite" else base

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let out_dir = ref None in
  let sanitize = ref false in
  let churn_nodes = ref None in
  let plan_file = ref None in
  let emit_plan = ref None in
  let fuzz_count = ref 25 in
  let fuzz_seed = ref 1 in
  let fuzz_max_nodes = ref 16 in
  let object_addr = ref None in
  let int_flag flag v ~ok ~expects k =
    match int_of_string_opt v with
    | Some n when ok n -> k n
    | _ -> usage_error "%s expects %s" flag expects
  in
  let rec split_args acc = function
    | "--out" :: dir :: rest ->
        out_dir := Some dir;
        E.Report.set_csv_dir (Some dir);
        split_args acc rest
    | "--sanitize" :: rest ->
        sanitize := true;
        split_args acc rest
    | "--jobs" :: n :: rest ->
        int_flag "--jobs" n ~ok:(fun j -> j >= 1) ~expects:"a positive integer"
          E.Parallel.set_default_jobs;
        split_args acc rest
    | "--host-time" :: rest ->
        E.Report.set_host_time_recording true;
        split_args acc rest
    | "--churn-nodes" :: n :: rest ->
        let cap = Drust_memory.Gaddr.max_nodes in
        int_flag "--churn-nodes" n
          ~ok:(fun c -> c >= 16 && c <= cap)
          ~expects:(Printf.sprintf "an integer in [16, %d]" cap)
          (fun c -> churn_nodes := Some c);
        split_args acc rest
    | "--trace-out" :: path :: rest ->
        let strip s suffix =
          match Filename.chop_suffix_opt ~suffix s with
          | Some b -> b
          | None -> s
        in
        let prefix = strip (strip path ".trace.json") ".json" in
        if prefix = "" then usage_error "--trace-out expects a non-empty path";
        (match env_trace () with
        | Some env when env <> prefix && env <> path ->
            usage_error "--trace-out %s conflicts with DRUST_TRACE=%s" path env
        | _ -> ());
        (match !trace_out with
        | Some p when p <> prefix ->
            usage_error "--trace-out named twice with different paths"
        | _ -> ());
        trace_out := Some prefix;
        split_args acc rest
    | "--object" :: a :: rest ->
        (match int_of_string_opt a with
        | Some v -> object_addr := Some v
        | None ->
            usage_error "--object expects an address (decimal or 0x... hex)");
        split_args acc rest
    | "--plan" :: file :: rest ->
        plan_file := Some file;
        split_args acc rest
    | "--emit-plan" :: file :: rest ->
        emit_plan := Some file;
        split_args acc rest
    | "--fuzz-count" :: n :: rest ->
        int_flag "--fuzz-count" n
          ~ok:(fun c -> c >= 1)
          ~expects:"a positive integer"
          (fun c -> fuzz_count := c);
        split_args acc rest
    | "--fuzz-seed" :: n :: rest ->
        int_flag "--fuzz-seed" n ~ok:(fun _ -> true) ~expects:"an integer"
          (fun s -> fuzz_seed := s);
        split_args acc rest
    | "--fuzz-max-nodes" :: n :: rest ->
        int_flag "--fuzz-max-nodes" n
          ~ok:(fun c -> c >= 4)
          ~expects:"an integer >= 4"
          (fun c -> fuzz_max_nodes := c);
        split_args acc rest
    | [ (("--out" | "--jobs" | "--churn-nodes" | "--trace-out" | "--object"
         | "--plan" | "--emit-plan" | "--fuzz-count" | "--fuzz-seed"
         | "--fuzz-max-nodes") as flag) ] ->
        usage_error "%s expects an argument" flag
    | x :: _ when String.length x >= 2 && String.sub x 0 2 = "--" ->
        usage_error "unknown flag %s" x
    | x :: rest -> split_args (x :: acc) rest
    | [] -> List.rev acc
  in
  let positional = split_args [] args in
  (* The forensics command reads a dump and exits — no experiments, no
     summary, no cluster. *)
  (match positional with
  | "forensics" :: rest ->
      (match rest with
      | [ dump ] ->
          run_forensics ~object_:!object_addr dump;
          exit 0
      | [] -> usage_error "forensics expects a *.flight.json dump path"
      | _ -> usage_error "forensics takes exactly one dump path")
  | _ ->
      if !object_addr <> None then
        usage_error "--object only applies to the forensics command");
  (* Validate everything up front — nothing runs on a bad invocation. *)
  List.iter
    (fun name ->
      if not (List.mem name all_names) then
        usage_error "unknown experiment %S" name)
    positional;
  let fuzzing = List.mem "fuzz" positional in
  if fuzzing && List.length positional > 1 then
    usage_error "fuzz runs alone; drop the other experiment names";
  if fuzzing && (!plan_file <> None || !emit_plan <> None) then
    usage_error "fuzz does not combine with --plan/--emit-plan";
  if !plan_file <> None && positional <> [] then
    usage_error "--plan replays the plan's own experiment list; drop %S"
      (List.hd positional);
  if !plan_file <> None && !emit_plan <> None then
    usage_error "--plan and --emit-plan do not combine";
  if !plan_file <> None && !churn_nodes <> None then
    usage_error "--plan carries its own churn size; drop --churn-nodes";
  (* Resolve what to run: a loaded suite plan, the fuzzer, or the
     requested (default: all) experiments. *)
  let opts =
    { E.Runner.default_opts with E.Runner.churn_nodes = !churn_nodes }
  in
  let suite =
    match !plan_file with
    | None -> None
    | Some file -> (
        match Simplan.load ~path:file with
        | Error e -> usage_error "--plan %s: %s" file e
        | Ok plan -> (
            match Simplan.validate plan with
            | Error errs ->
                usage_error "--plan %s: invalid plan: %s" file
                  (String.concat "; " errs)
            | Ok () -> (
                match plan.Simplan.spec with
                | Simplan.Suite s ->
                    List.iter
                      (fun name ->
                        if E.Runner.find name = None then
                          usage_error "--plan %s: unknown experiment %S" file
                            name)
                      s.Simplan.su_experiments;
                    Some s
                | Simplan.Sim _ ->
                    usage_error
                      "--plan %s is a sim plan; replay it with \
                       bin/drust_sim.exe --plan"
                      file)))
  in
  let requested =
    match suite with
    | Some s -> s.Simplan.su_experiments
    | None -> (
        match positional with
        | [] -> E.Runner.names @ List.map fst local_experiments
        | names -> names)
  in
  let opts =
    match suite with Some s -> E.Runner.opts_of_suite s | None -> opts
  in
  (match !emit_plan with
  | None -> ()
  | Some file ->
      let replayable = List.filter (fun n -> E.Runner.find n <> None) requested in
      if List.length replayable < List.length requested then
        usage_error "--emit-plan covers only: %s"
          (String.concat " " E.Runner.names);
      let plan =
        E.Runner.suite_plan_of opts ~name:(plan_name_of_path file) requested
      in
      (match Simplan.validate plan with
      | Ok () -> ()
      | Error errs ->
          usage_error "--emit-plan %s: %s" file (String.concat "; " errs));
      Simplan.save ~path:file plan;
      Printf.eprintf "[bench] plan written to %s\n%!" file);
  (* The fuzz oracle always runs each plan under its own local
     sanitizer, so --sanitize (accepted for CI-alias symmetry) does not
     additionally install the global hook there. *)
  if !sanitize && not fuzzing then Drust_check.Dsan.install_global ();
  let t0 =
    (Unix.gettimeofday ()
    [@dlint.allow
      "determinism: harness wall-clock total, printed to stderr only — \
       stdout stays comparable across runs"])
  in
  if fuzzing then
    run_fuzz ~count:!fuzz_count ~seed:!fuzz_seed ~max_nodes:!fuzz_max_nodes
      ~out_dir:!out_dir ()
  else
    List.iter
      (fun name ->
        match E.Runner.find name with
        | Some f -> f opts
        | None -> (List.assoc name local_experiments) ())
      requested;
  (* Machine-readable headline rates (docs/BENCHMARKS.md has the schema);
     status lines go to stderr so stdout stays comparable across runs.
     Fuzz batches record no rates and must not write a summary at all:
     clobbering BENCH_summary.json with an empty one would race the
     @bench-diff rule running in the same build directory. *)
  if not fuzzing then begin
    let summary_path =
      match !out_dir with
      | Some dir -> Filename.concat dir "BENCH_summary.json"
      | None -> "BENCH_summary.json"
    in
    E.Report.write_bench_summary ~path:summary_path;
    Printf.eprintf "wrote %s (%d entr(y/ies))\n" summary_path
      (List.length (E.Report.recorded_rates ()))
  end;
  Printf.eprintf "(total harness wall-clock: %.1f s)\n"
    ((Unix.gettimeofday () -. t0)
    [@dlint.allow
      "determinism: harness wall-clock total, printed to stderr only — \
       stdout stays comparable across runs"]);
  if
    !sanitize && (not fuzzing)
    && Drust_check.Dsan.report_attached ~clean:stderr > 0
  then exit 3
