module B = Bench_setup
module Cluster = Drust_machine.Cluster
module Ctx = Drust_machine.Ctx
module Engine = Drust_sim.Engine
module Model = Drust_net.Model
module P = Drust_core.Protocol
module Appkit = Drust_appkit.Appkit

type result = {
  gam_total : float;
  wire_time : float;
  coherence_fraction : float;
  drust_total : float;
}

let run () =
  Report.section "Motivation (S3): anatomy of one uncached remote read (512 B)";
  let n = 200 in
  (* GAM: allocate fresh objects on node 1, read each once from node 0. *)
  let gam_cluster = Cluster.create (B.testbed ~nodes:8 ()) in
  let gam = Drust_gam.Gam.create gam_cluster in
  let gam_total =
    Ctx.run_main gam_cluster (fun ctx ->
        let engine = Cluster.engine gam_cluster in
        let total = ref 0.0 in
        for _ = 1 to n do
          let h = Drust_gam.Gam.alloc_on gam ctx ~node:1 ~size:512 Appkit.blob in
          Ctx.flush ctx;
          let t0 = Engine.now engine in
          ignore (Drust_gam.Gam.read gam ctx h);
          Ctx.flush ctx;
          total := !total +. (Engine.now engine -. t0)
        done;
        !total /. Float.of_int n)
  in
  (* DRust: same pattern through an immutable borrow. *)
  let dr_cluster = Cluster.create (B.testbed ~nodes:8 ()) in
  let drust_total =
    Ctx.run_main dr_cluster (fun ctx ->
        let engine = Cluster.engine dr_cluster in
        let total = ref 0.0 in
        for _ = 1 to n do
          let o = P.create_on ctx ~node:1 ~size:512 Appkit.blob in
          Ctx.flush ctx;
          let t0 = Engine.now engine in
          ignore (P.read ctx o);
          Ctx.flush ctx;
          total := !total +. (Engine.now engine -. t0)
        done;
        !total /. Float.of_int n)
  in
  let wire = Model.oneside_time Model.infiniband_40g ~bytes:512 in
  let coherence_fraction = 1.0 -. (wire /. gam_total) in
  Report.table
    ~header:[ "metric"; "measured"; "paper" ]
    ~rows:
      [
        [ "GAM uncached 512B read"; Report.cell_time gam_total; "16 us" ];
        [ "wire-level read time"; Report.cell_time wire; "3.6 us" ];
        [ "coherence overhead"; Report.cell_pct coherence_fraction; "77%" ];
        [ "DRust equivalent read"; Report.cell_time drust_total; "~wire time" ];
      ];
  { gam_total; wire_time = wire; coherence_fraction; drust_total }
