(* Seeded forensics injector for the @forensics CI alias.

   Runs a real protocol workload on a small cluster (create on node 0, a
   remote fetch caches a copy on node 1, a color-bump write strands it),
   then injects a stale-cache-read observation stream into a DSan
   sanitizer attached to the same cluster.  The violation makes the
   flight recorder auto-write <dir>/forensics-demo.flight.json; the
   alias then asserts the dump exists and that
   `bench/main.exe forensics <dump> --object <addr>` reconstructs the
   pinned timeline.

   Usage: inject_flight.exe DUMP_DIR
   Prints the offending physical address (hex) on stdout. *)

module Flight = Drust_obs.Flight
module Engine = Drust_sim.Engine
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module P = Drust_core.Protocol
module Gaddr = Drust_memory.Gaddr
module Tap = Drust_memory.Tap
module Cache = Drust_memory.Cache
module Univ = Drust_util.Univ
module Dsan = Drust_check.Dsan

let int_tag : int Univ.tag = Univ.create_tag ~name:"int"
let pack = Univ.pack int_tag

let () =
  let dir =
    match Sys.argv with
    | [| _; dir |] -> dir
    | _ ->
        prerr_endline "usage: inject_flight.exe DUMP_DIR";
        exit 2
  in
  Flight.set_dump_dir (Some dir);
  let cluster =
    Cluster.create
      {
        Params.default with
        Params.nodes = 4;
        cores_per_node = 4;
        mem_per_node = Drust_util.Units.mib 64;
      }
  in
  let phys = ref 0 in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         let fl = Cluster.flight cluster in
         Flight.set_label fl "forensics-demo";
         let ctx0 = Ctx.make cluster ~node:0 in
         let ctx1 = Ctx.make cluster ~node:1 in
         let o = P.create_on ctx0 ~node:0 ~size:64 (pack 1) in
         let r = P.borrow_imm ctx1 o in
         ignore (P.imm_deref ctx1 r);
         P.drop_imm ctx1 r;
         P.owner_write ctx0 o (pack 2);
         let g = P.gaddr o in
         phys := Gaddr.to_int (Gaddr.clear_color g);
         let t = Dsan.attach cluster in
         Fun.protect
           ~finally:(fun () -> Dsan.detach t)
           (fun () ->
             let g0 = Gaddr.clear_color g in
             let g1 = Gaddr.bump_color g0 in
             Dsan.observe t ~time:1e-5 ~node:0 ~thread:0
               (Tap.Create { g = g0; size = 64 });
             Dsan.observe t ~time:1.1e-5 ~node:1 ~thread:(-1)
               (Tap.Cache_insert { key = g0; size = 64 });
             Dsan.observe t ~time:1.2e-5 ~node:0 ~thread:0
               (Tap.Write
                  { before = g0; after = g1; size = 64; kind = Tap.W_bump });
             Dsan.observe t ~time:1.3e-5 ~node:1 ~thread:2
               (Tap.Read { g = g1; path = Tap.Path_cache g0 });
             if Dsan.violations t = [] then begin
               prerr_endline
                 "inject_flight: sanitizer did not flag the injection";
               exit 1
             end)));
  Cluster.run cluster;
  let dump = Filename.concat dir "forensics-demo.flight.json" in
  if not (Sys.file_exists dump) then begin
    Printf.eprintf "inject_flight: no dump at %s\n" dump;
    exit 1
  end;
  Printf.printf "0x%x\n" !phys
