(* DataFrame analytics on DRust: run a chain of dependent columnar
   queries over a 4-node cluster, with and without affinity annotations,
   and compare against GAM.

   Run with:  dune exec examples/dataframe_analytics.exe *)

module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Appkit = Drust_appkit.Appkit
module Df = Drust_dataframe.Dataframe
module Simplan = Drust_plan.Simplan

let config =
  {
    Df.default_config with
    Df.partitions = 64;
    queries = 3;
    chunk_bytes = Drust_util.Units.kib 128;
  }

let run_variant name system ~affinity =
  let cluster = Cluster.create { Params.default with Params.nodes = 4 } in
  let backend = Simplan.make_backend system cluster in
  let r =
    Df.run ~cluster ~backend
      { config with Df.use_tbox = affinity; use_spawn_to = affinity }
  in
  Printf.printf "%-24s %8.1f queries/s  (%.1f ms per query)\n" name
    r.Appkit.throughput
    (r.Appkit.elapsed /. r.Appkit.ops *. 1e3);
  r.Appkit.throughput

let () =
  Printf.printf
    "DataFrame: %d partitions x %s chunks, %d dependent queries, 4 nodes\n\n"
    config.Df.partitions
    (Format.asprintf "%a" Drust_util.Units.pp_bytes config.Df.chunk_bytes)
    config.Df.queries;
  let plain = run_variant "DRust" Simplan.Drust ~affinity:false in
  let annotated = run_variant "DRust + TBox/spawn_to" Simplan.Drust ~affinity:true in
  let gam = run_variant "GAM" Simplan.Gam ~affinity:false in
  Printf.printf "\nannotations: %+.1f%%   DRust vs GAM: %.2fx\n"
    (100.0 *. ((annotated /. plain) -. 1.0))
    (annotated /. gam)
