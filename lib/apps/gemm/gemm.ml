module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Dsm = Drust_dsm.Dsm
module Dthread = Drust_runtime.Dthread
module Appkit = Drust_appkit.Appkit

type config = {
  grid : int;
  block_bytes : int;
  intensity : float;
  strips : int;
      (* inner-loop granularity: each block-pair multiply streams its
         operands in [strips] slices, re-reading the shared blocks.
         Caching systems hit their node cache after the first slice;
         Grappa re-delegates every slice (no remote caching). *)
}

let default_config =
  {
    grid = 16;
    block_bytes = Drust_util.Units.kib 64;
    intensity = 300.0;
    strips = 96;
  }

(* How many full C = A*B products to run. *)
let multiplies = 1

let allocate_grid ~(backend : Dsm.t) cfg ctx ~nodes ~salt =
  Array.init (cfg.grid * cfg.grid) (fun i ->
      backend.Dsm.alloc_on ctx ~node:((i + salt) mod nodes) ~size:cfg.block_bytes
        (Appkit.payload_of_int i))

let run ~cluster ~backend cfg =
  if cfg.grid <= 0 then invalid_arg "Gemm.run: empty grid";
  Appkit.run_main cluster (fun ctx ->
      let nodes = Cluster.node_count cluster in
      let g = cfg.grid in
      let a = allocate_grid ~backend cfg ctx ~nodes ~salt:0 in
      let b = allocate_grid ~backend cfg ctx ~nodes ~salt:g in
      Appkit.start_measurement ctx;
      let pair_ops = ref 0 in
      for _ = 1 to multiplies do
        (* Output blocks are sharded by row: row i belongs to node
           (i mod nodes), so workers on one node share cached A-row and
           B-column blocks.  Each node runs one worker thread per core
           (the paper's fixed-thread deployment): a worker that stalls on
           the network leaves its core idle, exposing coherence cost. *)
        let queues = Array.make nodes [] in
        for idx = (g * g) - 1 downto 0 do
          let node = idx / g mod nodes in
          queues.(node) <- idx :: queues.(node)
        done;
        let compute_block wctx idx =
          let i = idx / g and j = idx mod g in
          let slice_cycles =
            cfg.intensity *. Float.of_int cfg.block_bytes
            /. Float.of_int cfg.strips
          in
          let strip_bytes = max 64 (cfg.block_bytes / cfg.strips) in
          for k = 0 to g - 1 do
            (* Stream A(i,k) and B(k,j) slice by slice: the first touch
               fetches/faults; later touches are local for systems that
               cache. *)
            for _slice = 1 to cfg.strips do
              backend.Dsm.read_part wctx a.((i * g) + k) ~bytes:strip_bytes;
              backend.Dsm.read_part wctx b.((k * g) + j) ~bytes:strip_bytes;
              Ctx.compute wctx ~cycles:slice_cycles
            done
          done;
          (* materialize C(i,j) locally *)
          let c =
            backend.Dsm.alloc wctx ~size:cfg.block_bytes
              (Appkit.payload_of_int idx)
          in
          backend.Dsm.free wctx c
        in
        Dthread.join_all ctx (Appkit.spawn_workers ctx queues compute_block);
        pair_ops := !pair_ops + (g * g * g)
      done;
      Array.iter (fun h -> backend.Dsm.free ctx h) a;
      Array.iter (fun h -> backend.Dsm.free ctx h) b;
      (Float.of_int !pair_ops, []))
