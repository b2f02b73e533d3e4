(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DRust, OSDI'24) from the simulator.

   Usage:
     dune exec bench/main.exe                        # everything
     dune exec bench/main.exe -- fig5 table2         # selected experiments
     dune exec bench/main.exe -- fig5 --out results  # + CSV files
     dune exec bench/main.exe -- fig5 --jobs 4       # parallel sweep pool
     dune exec bench/main.exe -- fig5 --emit-plan p.json   # + plan artifact
     dune exec bench/main.exe -- --plan p.json       # replay a suite plan
     dune exec bench/main.exe -- fuzz --fuzz-count 25 --fuzz-seed 1
     dune exec bench/main.exe -- forensics d.flight.json --object 0x...

   --jobs N fans independent experiment configurations out over N
   domains (default 1); output is byte-identical for every N (see
   docs/BENCHMARKS.md).

   Experiments: motivation fig5 fig6 fig7 table1 table2 migration
                ablation traffic ycsb latency failover churn profile fuzz

   The plan-replayable experiments dispatch through
   Drust_experiments.Runner — the same table --plan replay uses, which
   is what makes a replayed run byte-identical to the direct one (see
   docs/SIMPLAN.md).  profile is a host-side diagnostic and stays
   CLI-only; fuzz is the seeded SimPlan fuzzer (Drust_plan.Fuzz).

   --churn-nodes N sets the churn experiment's cluster size (default
   64; the @churn CI alias runs it at 16).

   --host-time records each gated experiment's host wall-clock cost as
   a host_ms field in BENCH_summary.json (schema v3), which @bench-diff
   gates with a loose tolerance; off by default so plain summaries stay
   machine-independent and byte-identical across --jobs values.

   The [profile] experiment runs GEMM on DRust once with the span tracer
   enabled: it prints the run's metrics and span totals, a per-segment
   critical-path breakdown and the top-10 critical paths, and writes a
   Chrome trace_event JSON (Perfetto-loadable, with cross-node flow
   arrows) to --trace-out PATH (default drust-profile.trace.json) plus a
   JSONL metrics dump next to it (PATH's stem + .metrics.jsonl). *)

module E = Drust_experiments
module Simplan = Drust_plan.Simplan
module Fuzz = Drust_plan.Fuzz
module Flight = Drust_obs.Flight
module Cli = Drust_cli.Cli

(* ------------------------------------------------------------------ *)
(* Critical-path profile: one traced GEMM run, causally assembled.     *)

let metrics_path_of trace_path =
  let strip suffix s = Option.value ~default:s (Filename.chop_suffix_opt ~suffix s) in
  strip ".json" (strip ".trace.json" trace_path) ^ ".metrics.jsonl"

let run_profile ~trace_out =
  let module Cluster = Drust_machine.Cluster in
  let module Engine = Drust_sim.Engine in
  let module Span = Drust_obs.Span in
  let module Cp = Drust_obs.Critical_path in
  E.Report.section "Profile: critical paths of traced GEMM on DRust (4 nodes)";
  let plan =
    Simplan.app_plan
      ~params:(E.Bench_setup.testbed ~nodes:4 ())
      Simplan.Gemm_app Simplan.Drust
  in
  let gemm ~traced =
    Drust_util.Host_clock.timed (fun () ->
        Simplan.execute ~trace:traced plan)
  in
  let o, dt_traced = gemm ~traced:true in
  let cluster = o.Simplan.cluster in
  let r, snapshot =
    match o.Simplan.result with
    | Simplan.App_done { result; snapshot; _ } -> (result, snapshot)
    | Simplan.Failover_done _ | Simplan.Churn_done _ -> assert false
  in
  let spans = Cluster.spans cluster in
  E.Report.note
    (Printf.sprintf "GEMM: %.0f ops in %.6f virtual s"
       r.Drust_appkit.Appkit.ops r.Drust_appkit.Appkit.elapsed);
  E.Report.metrics_table snapshot;
  List.iter
    (fun (cat, st) ->
      E.Report.note
        (Printf.sprintf "spans[%-10s] %6d complete, %.6f virtual s total" cat
           st.Span.d_count st.Span.d_total))
    (Span.duration_stats spans);
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
  let trace_path = Option.value trace_out ~default:"drust-profile.trace.json" in
  let metrics_path = metrics_path_of trace_path in
  Drust_obs.Export.write_chrome_trace ~path:trace_path spans;
  Drust_obs.Export.write_metrics_jsonl ~time:(Cluster.now cluster)
    ~path:metrics_path snapshot;
  E.Report.note
    (Printf.sprintf
       "%d trace events (with cross-node flow arrows) -> %s (load in \
        ui.perfetto.dev)"
       (Span.count spans) trace_path);
  E.Report.note (Printf.sprintf "metrics snapshot -> %s" metrics_path);
  (* Host engine throughput: dispatched events per wall-clock second,
     of the traced run above and of one untraced run (the
     zero-allocation fast path).  Wall-clock numbers are machine-dependent, so they go
     to stderr — stdout must stay byte-identical across machines and runs
     (docs/PERFORMANCE.md explains how to read these). *)
  Printf.eprintf "host engine throughput (wall-clock, machine-dependent):\n";
  let host_rate ~label (o : Simplan.outcome) dt =
    let engine = Cluster.engine o.Simplan.cluster in
    let n = Engine.dispatched engine in
    Printf.eprintf "  %-18s %9d events (%d suspends) in %6.3f s = %.3g events/s\n"
      label n (Engine.suspends engine) dt
      (float_of_int n /. dt);
    float_of_int n /. dt
  in
  ignore (host_rate ~label:"gemm/4n traced" o dt_traced);
  let o_untraced, dt_untraced = gemm ~traced:false in
  let rate = host_rate ~label:"gemm/4n untraced" o_untraced dt_untraced in
  (* Headline summary entry: the deterministic virtual-time rate, plus —
     under --host-time only — the untraced engine throughput in events
     per host second, so @bench-diff gates engine performance with the
     loose host tolerance (docs/PERFORMANCE.md). *)
  E.Report.record_rate ~host_ms:(dt_untraced *. 1000.0) ~host_rate:rate
    ~experiment:"profile/gemm" ~ops:r.Drust_appkit.Appkit.ops
    ~elapsed:r.Drust_appkit.Appkit.elapsed ()

(* Every experiment name: the plan-replayable ones, the CLI-only
   profile, and the fuzzer (which runs alone). *)
let all_names = E.Runner.names @ [ "profile"; "fuzz" ]

(* ------------------------------------------------------------------ *)
(* Post-mortem forensics: reconstruct timelines from a *.flight.json
   dump alone — no re-run, no plan, no cluster (docs/FORENSICS.md).    *)

let prog = "bench"

let run_forensics ~object_ path =
  let d =
    match Flight.load ~path with
    | Ok d -> d
    | Error e -> Cli.usage_error ~prog "%s" e
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
(* Command line.                                                       *)

let usage_error fmt =
  Cli.usage_error ~prog
    ~hint:
      (Printf.sprintf
         "experiments: %s\ncommands: forensics DUMP.flight.json [--object ADDR]"
         (String.concat " " all_names))
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

let main positional out_dir () sanitize host_time churn_nodes trace_out
    object_addr plan_file emit_plan fuzz_count fuzz_seed fuzz_max_nodes =
  (* The forensics command reads a dump and exits — no experiments, no
     summary, no cluster. *)
  (match positional with
  | "forensics" :: rest -> (
      match rest with
      | [ dump ] ->
          run_forensics ~object_:object_addr dump;
          exit 0
      | [] -> usage_error "forensics expects a *.flight.json dump path"
      | _ -> usage_error "forensics takes exactly one dump path")
  | _ ->
      if object_addr <> None then
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
  if fuzzing && (plan_file <> None || emit_plan <> None) then
    usage_error "fuzz does not combine with --plan/--emit-plan";
  if plan_file <> None && positional <> [] then
    usage_error "--plan replays the plan's own experiment list; drop %S"
      (List.hd positional);
  if plan_file <> None && emit_plan <> None then
    usage_error "--plan and --emit-plan do not combine";
  if plan_file <> None && churn_nodes <> None then
    usage_error "--plan carries its own churn size; drop --churn-nodes";
  (* Resolve what to run: a loaded suite plan, the fuzzer, or the
     requested (default: all) experiments. *)
  let suite =
    Option.map
      (fun file ->
        let s = Cli.suite_plan ~prog file in
        List.iter
          (fun name ->
            if E.Runner.find name = None then
              usage_error "%s: unknown experiment %S" file name)
          s.Simplan.su_experiments;
        s)
      plan_file
  in
  let requested, opts =
    match suite with
    | Some s -> (s.Simplan.su_experiments, E.Runner.opts_of_suite s)
    | None ->
        ( (match positional with
          | [] -> E.Runner.names @ [ "profile" ]
          | names -> names),
          { E.Runner.default_opts with E.Runner.churn_nodes } )
  in
  if trace_out <> None && not (List.mem "profile" requested) then
    usage_error "--trace-out names the profile experiment's trace";
  (match emit_plan with
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
  E.Report.set_csv_dir out_dir;
  E.Report.set_host_time_recording host_time;
  (* The fuzz oracle always runs each plan under its own local
     sanitizer, so --sanitize (accepted for CI-alias symmetry) does not
     additionally install the global hook there. *)
  if sanitize && not fuzzing then Drust_check.Dsan.install_global ();
  let (), dt =
    Drust_util.Host_clock.timed (fun () ->
        if fuzzing then
          run_fuzz ~count:fuzz_count ~seed:fuzz_seed ~max_nodes:fuzz_max_nodes
            ~out_dir ()
        else
          List.iter
            (fun name ->
              match E.Runner.find name with
              | Some f -> f opts
              | None -> run_profile ~trace_out)
            requested)
  in
  (* Machine-readable headline rates (docs/BENCHMARKS.md has the schema);
     status lines go to stderr so stdout stays comparable across runs.
     Fuzz batches record no rates and must not write a summary at all:
     clobbering BENCH_summary.json with an empty one would race the
     @bench-diff rule running in the same build directory. *)
  if not fuzzing then begin
    let summary_path =
      match out_dir with
      | Some dir -> Filename.concat dir "BENCH_summary.json"
      | None -> "BENCH_summary.json"
    in
    E.Report.write_bench_summary ~path:summary_path;
    Printf.eprintf "wrote %s (%d entr(y/ies))\n" summary_path
      (List.length (E.Report.recorded_rates ()))
  end;
  Cli.wall_clock_note dt;
  if
    sanitize && (not fuzzing)
    && Drust_check.Dsan.report_attached ~clean:stderr > 0
  then exit 3

let () =
  let open Cmdliner in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let opt c default name docv doc =
    Arg.(value & opt c default & info [ name ] ~docv ~doc)
  in
  Cli.main
    (Cmd.info "bench"
       ~doc:"Regenerate the paper's evaluation tables and figures")
    Term.(
      const main
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"EXPERIMENT"
              ~doc:
                ("Experiments to run (default: all but fuzz): "
                ^ String.concat " " all_names
                ^ "; or the command $(b,forensics) DUMP.flight.json"))
      $ opt
          Arg.(some string)
          None "out" "DIR" "Also write CSV files and BENCH_summary.json to $(docv)"
      $ Cli.jobs $ Cli.sanitize
      $ flag "host-time"
          "Record each gated experiment's host wall-clock cost in \
           BENCH_summary.json"
      $ opt
          Arg.(some (Cli.cluster_size ~min:16))
          None "churn-nodes" "N" "The churn experiment's cluster size (default 64)"
      $ Cli.trace_out
      $ opt
          Arg.(some int)
          None "object" "ADDR"
          "forensics: the object whose timeline to reconstruct (decimal or \
           0x hex)"
      $ Cli.plan $ Cli.emit_plan
      $ opt (Cli.int_at_least 1) 25 "fuzz-count" "N" "Plans the fuzzer samples"
      $ opt Arg.int 1 "fuzz-seed" "N" "The fuzzer's seed"
      $ opt (Cli.int_at_least 4) 16 "fuzz-max-nodes" "N"
          "Largest cluster the fuzzer samples")
