module B = Bench_setup
module Simplan = Drust_plan.Simplan
module Appkit = Drust_appkit.Appkit
module Ycsb = Drust_workloads.Ycsb

type row = {
  workload : Ycsb.workload;
  system : Simplan.system;
  speedup : float;
}

let suite_ops = 24_000

let run_one w system ~nodes =
  let plan =
    Simplan.ycsb_plan ~params:(B.testbed ~nodes ()) ~mix:w ~ops:suite_ops
      system
  in
  match (Simplan.execute plan).Simplan.result with
  | Simplan.App_done { result; latency; _ } -> (result, latency)
  | Simplan.Failover_done _ | Simplan.Churn_done _ -> assert false

let run () =
  (* Parallel phase: one job per (workload, deployment) cell — the
     1-node baseline and each 8-node system run are all independent
     clusters.  Recording and rendering happen afterwards in grid
     order, so output is byte-identical for every --jobs value. *)
  let grid =
    List.concat_map
      (fun w ->
        (w, `Base) :: List.map (fun system -> (w, `Sys system)) Simplan.all_systems)
      Ycsb.all_workloads
  in
  let results =
    Parallel.map
      (fun (w, cell) ->
        match cell with
        | `Base -> run_one w Simplan.Original ~nodes:1
        | `Sys system -> run_one w system ~nodes:8)
      grid
  in
  let cells = List.combine grid results in
  Report.section "Extension: YCSB core workloads A-F (KV store, 8 nodes)";
  let rows = ref [] in
  let body =
    List.map
      (fun w ->
        let base, _ = List.assoc (w, `Base) cells in
        let cells_ =
          List.map
            (fun system ->
              let r, latency = List.assoc (w, `Sys system) cells in
              Report.record_rate ?latency
                ~experiment:
                  (Printf.sprintf "ycsb/%s/%s" (Ycsb.workload_name w)
                     (Simplan.system_name system))
                ~ops:r.Appkit.ops ~elapsed:r.Appkit.elapsed ();
              let speedup = r.Appkit.throughput /. base.Appkit.throughput in
              rows := { workload = w; system; speedup } :: !rows;
              Report.cell_f speedup)
            Simplan.all_systems
        in
        Ycsb.workload_name w :: cells_)
      Ycsb.all_workloads
  in
  Report.table
    ~header:("workload" :: List.map Simplan.system_name Simplan.all_systems)
    ~rows:body;
  Report.note "speedup vs the same workload on the 1-node original";
  List.rev !rows
