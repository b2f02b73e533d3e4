(* CLI: run one application on one DSM system with a chosen node count.

   Examples:
     dune exec bin/drust_sim.exe -- --app kvstore --system drust --nodes 8
     dune exec bin/drust_sim.exe -- --app dataframe --system gam --nodes 4
     dune exec bin/drust_sim.exe -- --app gemm --scan-nodes 1,2,4,8 --jobs 4
     dune exec bin/drust_sim.exe -- --app gemm --nodes 4 --profile
     dune exec bin/drust_sim.exe -- --app gemm --nodes 4 --emit-plan p.json
     dune exec bin/drust_sim.exe -- --plan p.json

   Every run is a SimPlan: the flags build the one --emit-plan saves,
   --plan loads one, and both execute and print along the same path, so
   replaying an emitted artifact reproduces the run's stdout exactly
   (docs/SIMPLAN.md).  The instrumentation flags (--trace, --profile,
   --explain, --trace-out) trace that same run.  drust_sim replays
   {e sim} plans (one cluster, one workload); suite plans belong to
   bench/main.exe --plan. *)

module B = Drust_experiments.Bench_setup
module Simplan = Drust_plan.Simplan
module Scenario = Drust_plan.Scenario
module Appkit = Drust_appkit.Appkit
module Cluster = Drust_machine.Cluster
module Span = Drust_obs.Span
module Flight = Drust_obs.Flight
module Cli = Drust_cli.Cli
open Cmdliner

let prog = "drust_sim"

let app_conv =
  Arg.enum
    [
      ("dataframe", Simplan.Dataframe_app);
      ("socialnet", Simplan.Socialnet_app);
      ("gemm", Simplan.Gemm_app);
      ("kvstore", Simplan.Kvstore_app);
    ]

let system_conv =
  Arg.enum
    [
      ("drust", Simplan.Drust);
      ("gam", Simplan.Gam);
      ("grappa", Simplan.Grappa);
      ("original", Simplan.Original);
    ]

let app_t =
  Arg.(
    value
    & opt app_conv Simplan.Kvstore_app
    & info [ "a"; "app" ] ~doc:"Application")

let system_t =
  Arg.(
    value
    & opt system_conv Simplan.Drust
    & info [ "s"; "system" ] ~doc:"DSM system")

let nodes =
  Arg.(
    value
    & opt (Cli.cluster_size ~min:1) 8
    & info [ "n"; "nodes" ] ~doc:"Cluster size")

let affinity = Arg.(value & flag & info [ "affinity" ] ~doc:"Enable TBox/spawn_to")
let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed")

let trace_n =
  Arg.(
    value
    & opt (Cli.int_at_least 0) 0
    & info [ "trace" ] ~docv:"N" ~doc:"Trace the run and dump its last $(docv) events")

let explain_t =
  Arg.(
    value
    & opt (some (Cli.int_at_least 0)) None
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
          "Trace the run and print the top-10 critical paths: each protocol \
           operation's end-to-end latency attributed to \
           queue/wire/serialize/protocol/compute segments")

let scan_nodes_t =
  Arg.(
    value
    & opt (some (list (Cli.cluster_size ~min:1))) None
    & info [ "scan-nodes" ] ~docv:"N,N,..."
        ~doc:
          "Instead of one run, sweep the app over these cluster sizes (one \
           independent cluster each, fanned out over --jobs domains) and \
           print a scaling table")

let usage_error fmt = Cli.usage_error ~prog fmt

let print_app_result ~name ~system ~nodes (r : Appkit.result) =
  Printf.printf "%s on %s, %d node(s):\n" name (Simplan.system_name system)
    nodes;
  Printf.printf "  ops        : %.0f\n" r.Appkit.ops;
  Printf.printf "  elapsed    : %.6f virtual s\n" r.Appkit.elapsed;
  Printf.printf "  throughput : %.1f ops/s\n" r.Appkit.throughput;
  List.iter (fun (k, v) -> Printf.printf "  %-10s : %.3f\n" k v) r.Appkit.extra

(* The printed summary depends only on the plan, so replaying the
   artifact a run emitted reproduces that run's stdout exactly. *)
let print_outcome (o : Simplan.outcome) =
  let plan = o.Simplan.plan in
  let sim =
    match plan.Simplan.spec with
    | Simplan.Sim sim -> sim
    | Simplan.Suite _ -> assert false
  in
  let nodes = sim.Simplan.topology.Simplan.nodes in
  match o.Simplan.result with
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
        r.Scenario.lost_writes r.Scenario.unreadable_keys

let app_result (o : Simplan.outcome) =
  match o.Simplan.result with
  | Simplan.App_done { result; _ } -> result
  | Simplan.Failover_done _ | Simplan.Churn_done _ -> assert false

(* What the instrumentation flags ask of the traced run's cluster. *)
let report_trace ~trace_n ~profile ~explain ~trace_out cluster =
  let spans = Cluster.spans cluster in
  if trace_n > 0 then Format.printf "%a@." (Span.dump ~limit:trace_n) spans;
  if profile then begin
    Printf.printf "critical paths (top 10 operations by end-to-end latency):\n";
    print_string (Drust_obs.Critical_path.report (Span.events spans))
  end;
  Option.iter
    (fun addr ->
      Printf.printf "object timeline for 0x%x (flight recorder):\n" addr;
      match
        Flight.explain_object ~object_:addr
          (Flight.events (Cluster.flight cluster))
      with
      | [] ->
          print_endline "  (no events about this object in the retained rings)"
      | lines -> List.iter (fun l -> Printf.printf "  %s\n" l) lines)
    explain;
  Option.iter
    (fun path ->
      Drust_obs.Export.write_chrome_trace ~path spans;
      Printf.printf "wrote Chrome trace (%d events) to %s\n"
        (List.length (Span.events spans))
        path)
    trace_out

let run app system nodes affinity seed trace_n trace_out explain profile
    sanitize () scan_nodes plan_file emit_plan =
  let traced = trace_n > 0 || trace_out <> None || profile || explain <> None in
  let plan_of nodes =
    Simplan.app_plan ~affinity
      ~pass_by_value:(system = Simplan.Original)
      ~params:(B.testbed ~nodes ~seed ())
      app system
  in
  let outcomes =
    match scan_nodes with
    | Some counts when counts <> [] ->
        if plan_file <> None then
          usage_error "--plan does not combine with --scan-nodes";
        if emit_plan <> None then
          usage_error "--emit-plan describes one run; drop --scan-nodes";
        if traced then
          usage_error
            "instrumentation flags trace one run; drop --scan-nodes";
        let outcomes =
          Drust_experiments.Parallel.map
            (fun n -> Simplan.execute ~sanitize (plan_of n))
            counts
        in
        Printf.printf "%s on %s, node scan:\n" (Simplan.app_name app)
          (Simplan.system_name system);
        Printf.printf "  %5s  %12s  %14s  %12s\n" "nodes" "ops" "elapsed (s)"
          "ops/s";
        List.iter2
          (fun nodes o ->
            let r = app_result o in
            Printf.printf "  %5d  %12.0f  %14.6f  %12.1f\n" nodes r.Appkit.ops
              r.Appkit.elapsed r.Appkit.throughput)
          counts outcomes;
        outcomes
    | _ ->
        let plan =
          match plan_file with
          | None -> plan_of nodes
          | Some file ->
              if emit_plan <> None then
                usage_error "--plan does not combine with --emit-plan";
              Cli.sim_plan ~prog file
        in
        Option.iter
          (fun file ->
            Simplan.save ~path:file plan;
            Printf.eprintf "[drust_sim] plan written to %s\n%!" file)
          emit_plan;
        let outcome, dt =
          Drust_util.Host_clock.timed (fun () ->
              Simplan.execute ~sanitize ~trace:traced plan)
        in
        print_outcome outcome;
        Cli.wall_clock_note dt;
        if traced then
          report_trace ~trace_n ~profile ~explain ~trace_out
            outcome.Simplan.cluster;
        [ outcome ]
  in
  if sanitize then
    let vs = List.concat_map (fun o -> o.Simplan.violations) outcomes in
    if
      Drust_check.Dsan.print_verdict ~clean:stdout
        ~clusters:(List.length outcomes) ~total:(List.length vs) vs
      > 0
    then exit 3

let () =
  Cli.main
    (Cmd.info "drust_sim"
       ~doc:"Run a DRust evaluation application on the simulated cluster")
    Term.(
      const run $ app_t $ system_t $ nodes $ affinity $ seed $ trace_n
      $ Cli.trace_out $ explain_t $ profile_t $ Cli.sanitize $ Cli.jobs
      $ scan_nodes_t $ Cli.plan $ Cli.emit_plan)
