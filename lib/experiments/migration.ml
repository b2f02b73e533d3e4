module B = Bench_setup
module Cluster = Drust_machine.Cluster
module Ctx = Drust_machine.Ctx
module Dthread = Drust_runtime.Dthread
module Controller = Drust_runtime.Controller
module Stats = Drust_util.Stats

type result = {
  migrations : int;
  average_latency : float;
  p90_latency : float;
  controller_migrations : int;
}

(* Controller-driven run: overload one node with compute threads and let
   the rebalancer spread them. *)
let controller_run () =
  let cluster = Cluster.create (B.testbed ~nodes:8 ()) in
  let controller = Controller.start cluster in
  Ctx.run_main cluster (fun ctx ->
      (* 48 compute-heavy threads all born on node 0 (~3x its cores), each
         also touching data on other servers so the CPU-pressure policy
         has migration targets. *)
      let remote =
        Array.init 8 (fun n ->
            Drust_core.Protocol.create_on ctx ~node:n ~size:256
              Drust_appkit.Appkit.blob)
      in
      let threads =
        List.init 48 (fun i ->
            Dthread.spawn_on ctx ~node:0 (fun wctx ->
                for _ = 1 to 40 do
                  let o = remote.((i + 1) mod 8) in
                  ignore (Drust_core.Protocol.read wctx o);
                  Ctx.compute wctx ~cycles:2_000_000.0
                done))
      in
      Dthread.join_all ctx threads;
      Controller.stop controller);
  Controller.migrations_ordered controller

let run () =
  Report.section "S7.3 drill-down: thread migration latency";
  (* Direct protocol measurement: migrate 15 threads between node pairs
     (the count the paper observed during GEMM). *)
  let cluster = Cluster.create (B.testbed ~nodes:8 ()) in
  Ctx.run_main cluster (fun ctx ->
      let threads =
        List.init 15 (fun i ->
            Dthread.spawn_on ctx ~node:(i mod 8) (fun wctx ->
                Ctx.compute wctx ~cycles:50_000.0;
                ignore (Dthread.migrate_now wctx ~target:((wctx.Ctx.node + 3) mod 8));
                Ctx.compute wctx ~cycles:50_000.0))
      in
      Dthread.join_all ctx threads);
  let stats = Dthread.migration_latency_stats cluster in
  let controller_migrations = controller_run () in
  let result =
    {
      migrations = Stats.count stats;
      average_latency = Stats.mean stats;
      p90_latency = Stats.percentile stats 90.0;
      controller_migrations;
    }
  in
  Report.table
    ~header:[ "metric"; "measured"; "paper" ]
    ~rows:
      [
        [ "threads migrated"; string_of_int result.migrations; "15" ];
        [ "avg latency"; Report.cell_time result.average_latency; "218 us" ];
        [ "P90 latency"; Report.cell_time result.p90_latency; "-" ];
        [
          "controller-ordered migrations (overload run)";
          string_of_int result.controller_migrations;
          "-";
        ];
      ];
  result
