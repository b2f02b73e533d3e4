module B = Bench_setup
module Simplan = Drust_plan.Simplan
module Appkit = Drust_appkit.Appkit

type row = {
  app : Simplan.app;
  system : Simplan.system;
  p50_us : float;
  p99_us : float;
}

let measure app system ~nodes =
  let r =
    B.run_app app system ~params:(B.testbed ~nodes ())
      ~pass_by_value:(system = Simplan.Original)
  in
  {
    app;
    system;
    p50_us = List.assoc "lat_p50_us" r.Appkit.extra;
    p99_us = List.assoc "lat_p99_us" r.Appkit.extra;
  }

let run () =
  Report.section
    "Supplementary: per-operation latency (median / P99, virtual us)";
  let apps = [ Simplan.Kvstore_app; Simplan.Socialnet_app ] in
  let rows = ref [] in
  let body =
    List.concat_map
      (fun app ->
        List.map
          (fun (system, nodes, label) ->
            let r = measure app system ~nodes in
            rows := r :: !rows;
            [
              Simplan.app_name app;
              label;
              Printf.sprintf "%.1f" r.p50_us;
              Printf.sprintf "%.1f" r.p99_us;
            ])
          [
            (Simplan.Original, 1, "Original (1 node)");
            (Simplan.Drust, 8, "DRust (8 nodes)");
            (Simplan.Gam, 8, "GAM (8 nodes)");
            (Simplan.Grappa, 8, "Grappa (8 nodes)");
          ])
      apps
  in
  Report.table ~header:[ "app"; "system"; "p50 (us)"; "p99 (us)" ] ~rows:body;
  List.rev !rows
