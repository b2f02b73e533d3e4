module B = Bench_setup
module Simplan = Drust_plan.Simplan
module Appkit = Drust_appkit.Appkit

type row = {
  app : Simplan.app;
  system : Simplan.system;
  nodes : int;
  speedup : float;
  throughput : float;
}

let paper_8node =
  [
    (Simplan.Dataframe_app, Simplan.Drust, 5.57);
    (Simplan.Dataframe_app, Simplan.Gam, 2.18);
    (Simplan.Dataframe_app, Simplan.Grappa, 1.69);
    (Simplan.Socialnet_app, Simplan.Drust, 3.51);
    (Simplan.Socialnet_app, Simplan.Gam, 1.33);
    (Simplan.Socialnet_app, Simplan.Grappa, 1.39);
    (Simplan.Gemm_app, Simplan.Drust, 5.93);
    (Simplan.Gemm_app, Simplan.Gam, 3.82);
    (Simplan.Gemm_app, Simplan.Grappa, 2.02);
    (Simplan.Kvstore_app, Simplan.Drust, 3.34);
    (Simplan.Kvstore_app, Simplan.Gam, 2.50);
  ]

let paper_at app system =
  List.fold_left
    (fun acc (a, s, v) -> if a = app && s = system then Some v else acc)
    None paper_8node

let systems_of app =
  Simplan.all_systems
  @ if app = Simplan.Socialnet_app then [ Simplan.Original ] else []

let run ?(node_counts = [ 1; 2; 4; 8 ]) () =
  (* Parallel phase: each (app, system, nodes) cell is an independent
     cluster, so the grid fans out over the domain pool.  Nothing in a
     job touches stdout or the rate registry — all rendering and
     recording happens below, in submission order, so the output is
     byte-identical for every --jobs value. *)
  B.precompute_baselines Simplan.all_apps;
  let grid =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun system ->
            List.map (fun nodes -> (app, system, nodes)) node_counts)
          (systems_of app))
      Simplan.all_apps
  in
  let results =
    Parallel.map
      (fun (app, system, nodes) ->
        B.run_app_with_latency app system
          ~pass_by_value:(system = Simplan.Original)
          ~params:(B.testbed ~nodes ()))
      grid
  in
  let cells = List.combine grid results in
  let result_at app system nodes =
    List.assoc (app, system, nodes) cells
  in
  (* Sequential phase: record and render in the fixed grid order. *)
  let rows = ref [] in
  let record app system nodes (result, latency) =
    let base = B.single_node_baseline app in
    Report.record_rate ?latency
      ~experiment:
        (Printf.sprintf "fig5/%s/%s/%dn" (Simplan.app_name app)
           (Simplan.system_name system) nodes)
      ~ops:result.Appkit.ops ~elapsed:result.Appkit.elapsed ();
    let speedup = result.Appkit.throughput /. base.Appkit.throughput in
    rows :=
      { app; system; nodes; speedup; throughput = result.Appkit.throughput }
      :: !rows;
    speedup
  in
  List.iter
    (fun app ->
      Report.section
        (Printf.sprintf "Figure 5: %s scaling (normalized to 1-node original, %s)"
           (Simplan.app_name app)
           (Report.cell_rate (B.single_node_baseline app).Appkit.throughput));
      let body =
        List.map
          (fun system ->
            let cells =
              List.map
                (fun nodes ->
                  Report.cell_f
                    (record app system nodes (result_at app system nodes)))
                node_counts
            in
            let paper =
              match paper_at app system with
              | Some v -> Printf.sprintf "%.2f" v
              | None -> "-"
            in
            (Simplan.system_name system :: cells) @ [ paper ])
          (systems_of app)
      in
      Report.table
        ~header:
          (("system"
           :: List.map (fun n -> Printf.sprintf "%dn" n) node_counts)
          @ [ "paper@8n" ])
        ~rows:body)
    Simplan.all_apps;
  List.rev !rows
