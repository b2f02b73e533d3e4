(* CLI: run one application on one DSM system with a chosen node count.

   Examples:
     dune exec bin/drust_sim.exe -- --app kvstore --system drust --nodes 8
     dune exec bin/drust_sim.exe -- --app dataframe --system gam --nodes 4
     dune exec bin/drust_sim.exe -- --app gemm --scan-nodes 1,2,4,8 --jobs 4
     dune exec bin/drust_sim.exe -- --app gemm --nodes 4 --profile
     dune exec bin/drust_sim.exe -- --app gemm --nodes 4 --emit-plan p.json
     dune exec bin/drust_sim.exe -- --plan p.json

   A run's scenario can be saved as a SimPlan artifact (--emit-plan)
   and replayed byte-identically (--plan); docs/SIMPLAN.md has the
   schema.  drust_sim replays {e sim} plans (one cluster, one
   workload); suite plans belong to bench/main.exe --plan. *)

module B = Drust_experiments.Bench_setup
module Simplan = Drust_plan.Simplan
module Scenario = Drust_plan.Scenario
module Appkit = Drust_appkit.Appkit
open Cmdliner

let app_conv =
  Arg.enum
    [
      ("dataframe", B.Dataframe_app);
      ("socialnet", B.Socialnet_app);
      ("gemm", B.Gemm_app);
      ("kvstore", B.Kvstore_app);
    ]

let system_conv =
  Arg.enum
    [
      ("drust", B.Drust);
      ("gam", B.Gam);
      ("grappa", B.Grappa);
      ("original", B.Original);
    ]

let app_t =
  Arg.(value & opt app_conv B.Kvstore_app & info [ "a"; "app" ] ~doc:"Application")

let system_t =
  Arg.(value & opt system_conv B.Drust & info [ "s"; "system" ] ~doc:"DSM system")

let nodes = Arg.(value & opt int 8 & info [ "n"; "nodes" ] ~doc:"Cluster size")
let affinity = Arg.(value & flag & info [ "affinity" ] ~doc:"Enable TBox/spawn_to")
let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed")

let trace_n =
  Arg.(
    value & opt int 0
    & info [ "trace" ] ~doc:"Dump the last N trace events of an instrumented re-run")

let trace_out_t =
  Arg.(
    value & opt_all string []
    & info
        [ "trace-out"; "chrome-trace" ]
        ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON (load it in Perfetto or \
           chrome://tracing) of an instrumented re-run to $(docv).  \
           $(b,--chrome-trace) is the historical spelling of the same \
           flag; giving both with different paths is an error (exit 2)")

let explain_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"ADDR"
        ~doc:
          "After the run, reconstruct the per-object timeline of the \
           object at physical address $(docv) (decimal or 0x hex) from \
           the flight recorder's retained rings: creation, every \
           move/fetch, ownership transfers, epoch events")

let profile_t =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Re-run on an instrumented cluster and print the top-10 critical \
           paths: each protocol operation's end-to-end latency attributed to \
           queue/wire/serialize/protocol/compute segments (the throughput \
           numbers above stay unprofiled)")

let sanitize_t =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Attach the DSan shadow-state sanitizer to every cluster the run \
           creates and report any coherence/ownership invariant violations \
           (exit status 3 if any are found)")

let jobs_t =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Size of the domain pool used to fan out independent simulated \
           clusters (one cluster stays strictly single-domain).  Output is \
           byte-identical for every $(docv)")

let scan_nodes_t =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "scan-nodes" ] ~docv:"N,N,..."
        ~doc:
          "Instead of one run, sweep the app over these cluster sizes (one \
           independent cluster each, fanned out over --jobs domains) and \
           print a scaling table")

let plan_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "plan" ] ~docv:"FILE"
        ~doc:
          "Replay the sim plan in $(docv) instead of building one from the \
           CLI flags; output is byte-identical to the run that emitted it")

let emit_plan_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-plan" ] ~docv:"FILE"
        ~doc:"Also write this run's SimPlan artifact to $(docv)")

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "drust_sim: %s\n" msg;
      exit 2)
    fmt

let report_sanitizer () =
  if Drust_check.Dsan.report_attached ~clean:stdout > 0 then exit 3

let scan app system affinity seed counts =
  let results =
    Drust_experiments.Parallel.map
      (fun nodes ->
        B.run_app ~affinity app system
          ~params:(B.testbed ~nodes ~seed ())
          ~pass_by_value:(system = B.Original))
      counts
  in
  Printf.printf "%s on %s, node scan:\n" (B.app_name app)
    (B.system_name system);
  Printf.printf "  %5s  %12s  %14s  %12s\n" "nodes" "ops" "elapsed (s)"
    "ops/s";
  List.iter2
    (fun nodes r ->
      Printf.printf "  %5d  %12.0f  %14.6f  %12.1f\n" nodes r.Appkit.ops
        r.Appkit.elapsed r.Appkit.throughput)
    counts results

let print_app_result ~name ~system ~nodes (r : Appkit.result) =
  Printf.printf "%s on %s, %d node(s):\n" name (Simplan.system_name system)
    nodes;
  Printf.printf "  ops        : %.0f\n" r.Appkit.ops;
  Printf.printf "  elapsed    : %.6f virtual s\n" r.Appkit.elapsed;
  Printf.printf "  throughput : %.1f ops/s\n" r.Appkit.throughput;
  List.iter (fun (k, v) -> Printf.printf "  %-10s : %.3f\n" k v) r.Appkit.extra

(* Replay a sim plan: one cluster, one workload, a local sanitizer when
   asked — the printed summary depends only on the plan, so replaying
   the artifact a run emitted reproduces that run's stdout exactly. *)
let run_plan ~file ~sanitize =
  let plan =
    match Simplan.load ~path:file with
    | Ok plan -> plan
    | Error e -> usage_error "--plan %s: %s" file e
  in
  (match Simplan.validate plan with
  | Ok () -> ()
  | Error errs ->
      usage_error "--plan %s: invalid plan: %s" file (String.concat "; " errs));
  let sim =
    match plan.Simplan.spec with
    | Simplan.Sim sim -> sim
    | Simplan.Suite _ ->
        usage_error
          "--plan %s is a suite plan; replay it with bench/main.exe --plan"
          file
  in
  let outcome = Simplan.execute ~sanitize plan in
  let nodes = sim.Simplan.topology.Simplan.nodes in
  (match outcome.Simplan.result with
  | Simplan.App_done { result; _ } ->
      let name =
        match sim.Simplan.workload with
        | Simplan.App_run { app; _ } -> Simplan.app_name app
        | Simplan.Ycsb_run { mix; _ } ->
            "kv-store/ycsb-" ^ Drust_workloads.Ycsb.workload_name mix
        | Simplan.Failover_kv _ | Simplan.Churn_kv _ -> assert false
      in
      print_app_result ~name ~system:sim.Simplan.system ~nodes result
  | Simplan.Failover_done r ->
      Printf.printf "failover plan %s, %d node(s):\n" plan.Simplan.name nodes;
      Printf.printf "  ops        : %d completed, %d failed\n"
        r.Scenario.total_ops r.Scenario.failed_ops;
      Printf.printf "  crash      : node %d at %.6f s\n" r.Scenario.victim
        r.Scenario.crash_time;
      (match r.Scenario.detection_time with
      | Some t -> Printf.printf "  detection  : %.6f s\n" t
      | None -> Printf.printf "  detection  : never\n");
      (match r.Scenario.recovery_time with
      | Some t -> Printf.printf "  recovery   : %.6f s\n" t
      | None -> Printf.printf "  recovery   : never\n")
  | Simplan.Churn_done r ->
      Printf.printf "churn plan %s, %d node(s):\n" plan.Simplan.name nodes;
      Printf.printf "  ops        : %d completed, %d failed\n"
        r.Scenario.total_ops r.Scenario.failed_ops;
      Printf.printf "  membership : %d joins, %d leaves, epoch %d\n"
        r.Scenario.joins r.Scenario.leaves r.Scenario.final_epoch;
      Printf.printf "  handoffs   : %d committed, %d aborted\n"
        r.Scenario.handoff_commits r.Scenario.handoff_aborts;
      Printf.printf "  integrity  : %d lost writes, %d unreadable keys\n"
        r.Scenario.lost_writes r.Scenario.unreadable_keys);
  if sanitize then begin
    match outcome.Simplan.violations with
    | [] -> Printf.printf "DSan: no invariant violations (1 cluster checked)\n"
    | vs ->
        List.iter prerr_endline vs;
        Printf.eprintf "DSan: %d invariant violation(s)\n" (List.length vs);
        exit 3
  end

let check_nodes flag n =
  let cap = Drust_memory.Gaddr.max_nodes in
  if n < 1 || n > cap then
    usage_error "%s expects cluster sizes in [1, %d], got %d" flag cap n

let run app system nodes affinity seed trace_n trace_outs explain profile
    sanitize jobs scan_nodes plan_file emit_plan =
  if jobs < 1 then usage_error "--jobs expects a positive integer, got %d" jobs;
  if trace_n < 0 then
    usage_error "--trace expects a non-negative event count, got %d" trace_n;
  check_nodes "--nodes" nodes;
  Option.iter (List.iter (check_nodes "--scan-nodes")) scan_nodes;
  let chrome_path =
    match List.sort_uniq String.compare trace_outs with
    | [] -> None
    | [ p ] -> Some p
    | p :: q :: _ ->
        usage_error "--trace-out %s conflicts with --trace-out %s" p q
  in
  let explain_addr =
    match explain with
    | None -> None
    | Some s -> (
        match int_of_string_opt s with
        | Some a when a >= 0 -> Some a
        | _ -> usage_error "--explain expects a physical address, got %S" s)
  in
  Drust_experiments.Parallel.set_default_jobs jobs;
  match plan_file with
  | Some file ->
      if scan_nodes <> None then
        usage_error "--plan does not combine with --scan-nodes";
      if emit_plan <> None then
        usage_error "--plan does not combine with --emit-plan";
      if trace_n > 0 || chrome_path <> None || profile || explain_addr <> None
      then usage_error "--plan does not combine with instrumentation flags";
      run_plan ~file ~sanitize
  | None ->
  if sanitize then Drust_check.Dsan.install_global ();
  match scan_nodes with
  | Some counts when counts <> [] ->
      if emit_plan <> None then
        usage_error "--emit-plan describes one run; drop --scan-nodes";
      scan app system affinity seed counts;
      if sanitize then report_sanitizer ()
  | _ ->
  let params = B.testbed ~nodes ~seed () in
  (match emit_plan with
  | None -> ()
  | Some file ->
      let plan =
        Simplan.app_plan ~affinity
          ~pass_by_value:(system = B.Original)
          ~params app system
      in
      Simplan.save ~path:file plan;
      Printf.eprintf "[drust_sim] plan written to %s\n%!" file);
  let t0 =
    (Unix.gettimeofday ()
    [@dlint.allow
      "determinism: human-facing wall-clock note, printed to stderr only — \
       stdout stays comparable across runs"])
  in
  (* With --trace the run is repeated on an instrumented cluster so the
     throughput numbers above stay untraced. *)
  let r =
    B.run_app ~affinity app system ~params ~pass_by_value:(system = B.Original)
  in
  print_app_result ~name:(B.app_name app) ~system ~nodes r;
  (* Wall-clock is machine-dependent: stderr, so stdout replays clean. *)
  Printf.eprintf "(wall-clock: %.2f s)\n"
    ((Unix.gettimeofday () -. t0)
    [@dlint.allow
      "determinism: human-facing wall-clock note, printed to stderr only — \
       stdout stays comparable across runs"]);
  if trace_n > 0 || chrome_path <> None || profile || explain_addr <> None
  then begin
    let module Cluster = Drust_machine.Cluster in
    let module Span = Drust_obs.Span in
    let cluster = Cluster.create params in
    let spans = Cluster.spans cluster in
    Span.enable spans;
    let backend = B.make_backend system cluster in
    (match app with
    | B.Dataframe_app ->
        ignore
          (Drust_dataframe.Dataframe.run ~cluster ~backend
             Drust_dataframe.Dataframe.default_config)
    | B.Socialnet_app ->
        ignore
          (Drust_socialnet.Socialnet.run ~cluster ~backend
             Drust_socialnet.Socialnet.default_config)
    | B.Gemm_app ->
        ignore (Drust_gemm.Gemm.run ~cluster ~backend Drust_gemm.Gemm.default_config)
    | B.Kvstore_app ->
        ignore
          (Drust_kvstore.Kvstore.run ~cluster ~backend
             Drust_kvstore.Kvstore.default_config));
    if trace_n > 0 then Format.printf "%a@." (Span.dump ~limit:trace_n) spans;
    if profile then begin
      Printf.printf "critical paths (top 10 operations by end-to-end latency):\n";
      print_string (Drust_obs.Critical_path.report ~k:10 (Span.events spans))
    end;
    (match explain_addr with
    | None -> ()
    | Some addr ->
        let module Flight = Drust_obs.Flight in
        let events = Flight.events (Cluster.flight cluster) in
        Printf.printf "object timeline for 0x%x (flight recorder):\n" addr;
        let lines = Flight.explain_object ~object_:addr events in
        if lines = [] then
          print_endline "  (no events about this object in the retained rings)"
        else List.iter (fun l -> Printf.printf "  %s\n" l) lines);
    match chrome_path with
    | Some path ->
        Drust_obs.Export.write_chrome_trace ~path spans;
        Printf.printf "wrote Chrome trace (%d events) to %s\n"
          (List.length (Span.events spans))
          path
    | None -> ()
  end;
  if sanitize then report_sanitizer ()

let cmd =
  Cmd.v
    (Cmd.info "drust_sim"
       ~doc:"Run a DRust evaluation application on the simulated cluster")
    Term.(
      const run $ app_t $ system_t $ nodes $ affinity $ seed $ trace_n
      $ trace_out_t $ explain_t $ profile_t $ sanitize_t $ jobs_t
      $ scan_nodes_t $ plan_t $ emit_plan_t)

(* A malformed command line (unknown flag, bad enum or number) exits 2,
   like every usage error above, rather than Cmdliner's 124. *)
let () =
  match Cmd.eval_value cmd with
  | Ok (`Ok () | `Version | `Help) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit Cmd.Exit.internal_error
