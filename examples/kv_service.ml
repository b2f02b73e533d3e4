(* A distributed KV cache on DRust: a chained hash table in the global
   heap, bucket mutexes via one-sided CAS, and a YCSB zipf client load.

   Run with:  dune exec examples/kv_service.exe *)

module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Appkit = Drust_appkit.Appkit
module Kv = Drust_kvstore.Kvstore
module Ycsb = Drust_workloads.Ycsb
module Simplan = Drust_plan.Simplan

let config =
  {
    Kv.default_config with
    Kv.keys = 500_000;
    buckets = 16_384;
    ops = 20_000;
  }

let () =
  let gen = Ycsb.create ~keys:config.Kv.keys ~seed:1 () in
  Printf.printf "KV service: %d keys in %d buckets, zipf(%.2f) %d%% GET\n"
    config.Kv.keys config.Kv.buckets config.Kv.theta
    (Float.to_int (100.0 *. config.Kv.get_ratio));
  Printf.printf "hottest 10 keys carry %.1f%% of the load\n\n"
    (100.0 *. Ycsb.hot_share gen ~k:10);
  List.iter
    (fun nodes ->
      let cluster = Cluster.create { Params.default with Params.nodes = nodes } in
      let backend = Simplan.make_backend Simplan.Drust cluster in
      let r = Kv.run ~cluster ~backend config in
      Printf.printf "%d node(s): %s  (%.0f clients, GETs %.0f%%)\n" nodes
        (Format.asprintf "%a" Drust_util.Units.pp_rate r.Appkit.throughput)
        (List.assoc "clients" r.Appkit.extra)
        (100.0 *. List.assoc "get_fraction" r.Appkit.extra))
    [ 1; 2; 4; 8 ]
