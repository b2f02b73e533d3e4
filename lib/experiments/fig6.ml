module B = Bench_setup
module Simplan = Drust_plan.Simplan
module Appkit = Drust_appkit.Appkit
module Cluster = Drust_machine.Cluster
module Df = Drust_dataframe.Dataframe

type row = { label : string; speedup : float; vs_plain : float }

let run_variant ~use_tbox ~use_spawn_to =
  let params = B.testbed ~nodes:8 () in
  let cluster = Cluster.create params in
  let backend = Simplan.make_backend Simplan.Drust cluster in
  let r =
    Df.run ~cluster ~backend
      { Df.default_config with Df.use_tbox; use_spawn_to }
  in
  let snap = Drust_obs.Metrics.snapshot (Cluster.metrics cluster) in
  (r, Drust_obs.Metrics.merged_histo snap "protocol.op_latency")

let run () =
  (* The three variants are independent clusters: fan them out, then
     record and render sequentially in the fixed order. *)
  B.precompute_baselines [ Simplan.Dataframe_app ];
  let variants =
    Parallel.run
      [
        (fun () -> run_variant ~use_tbox:false ~use_spawn_to:false);
        (fun () -> run_variant ~use_tbox:true ~use_spawn_to:false);
        (fun () -> run_variant ~use_tbox:true ~use_spawn_to:true);
      ]
  in
  let (plain, plain_lat), (tbox, tbox_lat), (both, both_lat) =
    match variants with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  Report.section "Figure 6: DataFrame affinity annotations (DRust, 8 nodes)";
  let base = B.single_node_baseline Simplan.Dataframe_app in
  let mk label (r, latency) paper =
    Report.record_rate ?latency
      ~experiment:("fig6/" ^ label)
      ~ops:r.Appkit.ops ~elapsed:r.Appkit.elapsed ();
    let speedup = r.Appkit.throughput /. base.Appkit.throughput in
    let vs_plain = r.Appkit.throughput /. plain.Appkit.throughput in
    ( { label; speedup; vs_plain },
      [
        label;
        Report.cell_f speedup;
        Printf.sprintf "%+.1f%%" (100.0 *. (vs_plain -. 1.0));
        paper;
      ] )
  in
  let r1, c1 = mk "no annotations" (plain, plain_lat) "-" in
  let r2, c2 = mk "+ TBox" (tbox, tbox_lat) "+12%" in
  let r3, c3 = mk "+ TBox + spawn_to" (both, both_lat) "+21% (12%+9%)" in
  Report.table
    ~header:[ "variant"; "speedup vs orig"; "vs plain"; "paper" ]
    ~rows:[ c1; c2; c3 ];
  [ r1; r2; r3 ]
