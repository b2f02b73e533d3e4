module B = Bench_setup
module Simplan = Drust_plan.Simplan
module Appkit = Drust_appkit.Appkit

type row = { app : Simplan.app; system : Simplan.system; overhead : float }

let paper =
  [
    (Simplan.Dataframe_app, Simplan.Drust, 0.26);
    (Simplan.Gemm_app, Simplan.Drust, 0.04);
    (Simplan.Kvstore_app, Simplan.Drust, 0.32);
  ]

let paper_at app system =
  List.fold_left
    (fun acc (a, s, v) -> if a = app && s = system then Some v else acc)
    None paper

let apps = [ Simplan.Dataframe_app; Simplan.Gemm_app; Simplan.Kvstore_app ]

let run () =
  Report.section
    "Figure 7: cache-coherence cost (fixed 16 cores / 64GB, 1 vs 8 nodes)";
  let rows = ref [] in
  let body =
    List.map
      (fun app ->
        let cells =
          List.map
            (fun system ->
              let one =
                B.run_app app system ~params:(B.fixed_testbed ~nodes:1)
              in
              let eight =
                B.run_app app system ~params:(B.fixed_testbed ~nodes:8)
              in
              let overhead =
                1.0 -. (eight.Appkit.throughput /. one.Appkit.throughput)
              in
              rows := { app; system; overhead } :: !rows;
              let paper_s =
                match paper_at app system with
                | Some v -> Printf.sprintf " (paper %.0f%%)" (100.0 *. v)
                | None -> ""
              in
              Report.cell_pct overhead ^ paper_s)
            Simplan.all_systems
        in
        Simplan.app_name app :: cells)
      apps
  in
  Report.table
    ~header:("app" :: List.map Simplan.system_name Simplan.all_systems)
    ~rows:body;
  Report.note
    "overhead = 1 - throughput(8 nodes) / throughput(1 node), same total resources";
  List.rev !rows
