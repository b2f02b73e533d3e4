module B = Bench_setup
module Simplan = Drust_plan.Simplan
module Appkit = Drust_appkit.Appkit

type row = {
  app : Simplan.app;
  system : Simplan.system;
  remote_ops_per_op : float;
  bytes_per_op : float;
}

(* Like Bench_setup.run_app but reads the plan outcome's metrics
   snapshot so the fabric counters survive the run. *)
let run_one app system =
  let params = B.testbed ~nodes:8 () in
  let plan = Simplan.app_plan ~params app system in
  let result, latency, snap =
    match (Simplan.execute plan).Simplan.result with
    | Simplan.App_done { result; latency; snapshot } ->
        (result, latency, snapshot)
    | Simplan.Failover_done _ | Simplan.Churn_done _ -> assert false
  in
  (* Read totals from the run's metrics snapshot rather than the
     fabric's convenience accessors — same numbers, one source of truth. *)
  ( {
      app;
      system;
      remote_ops_per_op =
        Float.of_int (Drust_obs.Metrics.total snap "fabric.remote_ops")
        /. result.Appkit.ops;
      bytes_per_op =
        Float.of_int (Drust_obs.Metrics.total snap "fabric.bytes_out")
        /. result.Appkit.ops;
    },
    result,
    latency )

let run () =
  (* Parallel phase (pure compute per cell), then record + render in
     grid order. *)
  let grid =
    List.concat_map
      (fun app -> List.map (fun system -> (app, system)) Simplan.all_systems)
      Simplan.all_apps
  in
  let results = Parallel.map (fun (app, system) -> run_one app system) grid in
  Report.section "Supplementary: coherence traffic per application operation (8 nodes)";
  let rows =
    List.map
      (fun (row, result, latency) ->
        Report.record_rate ?latency
          ~experiment:
            (Printf.sprintf "traffic/%s/%s" (Simplan.app_name row.app)
               (Simplan.system_name row.system))
          ~ops:result.Appkit.ops ~elapsed:result.Appkit.elapsed ();
        row)
      results
  in
  Report.table
    ~header:[ "app"; "system"; "remote verbs / op"; "bytes / op" ]
    ~rows:
      (List.map
         (fun r ->
           [
             Simplan.app_name r.app;
             Simplan.system_name r.system;
             Printf.sprintf "%.1f" r.remote_ops_per_op;
             Format.asprintf "%a" Drust_util.Units.pp_bytes
               (Float.to_int r.bytes_per_op);
           ])
         rows);
  Report.note
    "verbs = one-sided READ/WRITE + RPC + atomics crossing node boundaries";
  rows
