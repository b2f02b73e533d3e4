(* SocialNet: the 12-microservice benchmark, pass-by-value RPC vs
   references over the shared heap.  Prints throughput and tail latency
   for the original deployment and the DRust port on the same cluster.

   Run with:  dune exec examples/socialnet_service.exe *)

module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Appkit = Drust_appkit.Appkit
module Sn = Drust_socialnet.Socialnet
module Simplan = Drust_plan.Simplan

let config = { Sn.default_config with Sn.requests = 3_000 }

let run_variant label system ~pass_by_value =
  let cluster = Cluster.create { Params.default with Params.nodes = 4 } in
  let backend = Simplan.make_backend system cluster in
  let r = Sn.run ~cluster ~backend { config with Sn.pass_by_value } in
  Printf.printf "%-28s %9.0f req/s   p50 %6.1f us   p99 %7.1f us\n" label
    r.Appkit.throughput
    (List.assoc "lat_p50_us" r.Appkit.extra)
    (List.assoc "lat_p99_us" r.Appkit.extra)

let () =
  Printf.printf
    "SocialNet on 4 nodes: %d users, %d requests (%d services)\n\n"
    config.Sn.users config.Sn.requests Sn.services;
  run_variant "original (serialize values)" Simplan.Original ~pass_by_value:true;
  run_variant "DRust (pass references)" Simplan.Drust ~pass_by_value:false;
  run_variant "GAM (pass references)" Simplan.Gam ~pass_by_value:false;
  print_newline ();
  Printf.printf
    "The DSM ports skip serialization and redundant copies at every hop;\n";
  Printf.printf
    "DRust additionally keeps hot posts cached and moves timelines to\n";
  Printf.printf "their writers instead of invalidating readers.\n"
