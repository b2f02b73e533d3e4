(* Fault tolerance (S4.2.3), end to end and fully automatic: replicate
   the global heap, batch write-backs until ownership escapes, then crash
   a primary through the fault plan — nobody calls [fail_and_promote].
   The controller's heartbeat detector notices the missed probes,
   promotes the backup, and a retried read comes back with the committed
   value.  The whole sequence runs under the DSan shadow-state sanitizer
   (docs/SANITIZER.md), which cross-checks every coherence transition of
   the crash/promotion path.

   Run with:  dune exec examples/fault_tolerance.exe *)

module Engine = Drust_sim.Engine
module Fault = Drust_sim.Fault
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module Fabric = Drust_net.Fabric
module P = Drust_core.Protocol
module Replication = Drust_runtime.Replication
module Controller = Drust_runtime.Controller
module Dthread = Drust_runtime.Dthread
module Rng = Drust_util.Rng
module Univ = Drust_util.Univ
module Gaddr = Drust_memory.Gaddr
module Dsan = Drust_check.Dsan

let tag : string Univ.tag = Univ.create_tag ~name:"ft.doc"

let () =
  let cluster = Cluster.create { Params.default with Params.nodes = 4 } in
  let dsan = Dsan.attach cluster in
  let engine = Cluster.engine cluster in
  let fabric = Cluster.fabric cluster in
  let plan =
    Fault.create ~engine ~rng:(Rng.create ~seed:7)
      ~flight:(Cluster.flight cluster) ~nodes:4
  in
  Fabric.set_fault_plan fabric plan;
  Ctx.run_main cluster (fun ctx ->
      let doc = P.create_on ctx ~node:1 ~size:256 (Univ.pack tag "v1") in
      Printf.printf "doc lives on node %d\n" (Gaddr.node_of (P.gaddr doc));

      let repl = Replication.enable cluster in
      Printf.printf "replication on: node 1's backup is node %d\n"
        (Replication.backup_node repl 1);

      (* The heartbeat failure detector rides on the controller's
         probe loop; handing it the replication manager is all it
         takes to make promotion automatic. *)
      let ctrl = Controller.start ~replication:repl cluster in
      let detected = ref false in
      Controller.set_on_death ctrl (fun n ->
          Printf.printf "detector: node %d declared dead, promoting\n" n;
          detected := true);

      (* A writer thread on node 1 commits v2 and hands the document
         away — the transfer flushes the batched backup write-back. *)
      let writer =
        Dthread.spawn_on ctx ~node:1 (fun w ->
            let m = P.borrow_mut w doc in
            P.mut_write w m (Univ.pack tag "v2");
            P.drop_mut w m;
            Printf.printf "writer committed v2 (pending write-backs: %d)\n"
              (Replication.pending_writes repl);
            P.transfer w doc ~to_node:2;
            Printf.printf "ownership escaped   (pending write-backs: %d)\n"
              (Replication.pending_writes repl))
      in
      Dthread.join ctx writer;

      (* Crash whichever node now hosts the object.  This only injects
         the fault: from here on, detection and promotion happen with
         zero application involvement. *)
      let victim = Cluster.serving_node cluster (Gaddr.node_of (P.gaddr doc)) in
      Printf.printf "crashing node %d...\n" victim;
      Fault.crash_at plan ~node:victim ~at:(Engine.now engine);

      (* The detector's window is under 3 ms of virtual time (see
         [Controller.start]); a wait a thousand times longer that ends
         without a verdict means detection is broken, and the probe loop
         would otherwise keep the simulation running forever. *)
      let patience = 3.0 in
      let deadline = Engine.now engine +. patience in
      while (not !detected) && Engine.now engine < deadline do
        Engine.delay engine 0.5e-3
      done;
      if not !detected then begin
        Printf.eprintf
          "fault_tolerance: node %d crashed but was not declared dead \
           within %g s of virtual time\n"
          victim patience;
        exit 1
      end;
      Printf.printf "promoted: node %d's range now served by node %d\n"
        victim
        (Cluster.serving_node cluster victim);

      (* Reads during the detection window would raise [Node_down];
         bounded retries carry the client across the failover. *)
      let v =
        Fabric.retry_with_backoff fabric ~from:ctx.Ctx.node (fun () ->
            Univ.unpack_exn tag (P.owner_read ctx doc))
      in
      Printf.printf "read after failover: %S (expected \"v2\")\n" v;
      assert (v = "v2");
      Controller.stop ctrl;
      Replication.disable repl);
  (match Dsan.violations dsan with
  | [] ->
      Printf.printf "sanitizer: zero invariant violations across the failover\n"
  | rs ->
      List.iter (fun r -> prerr_endline (Dsan.report_to_string r)) rs;
      assert false);
  Dsan.detach dsan
