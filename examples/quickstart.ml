(* Quickstart: the paper's accumulator (Listings 2 and 4), run on a
   simulated 4-node cluster, then the shared-state side of its
   programming model (§4.1.2): an Arc-shared value, a Mutex and scoped
   threads.

   A single-machine program — allocate two integers, add one to the other,
   spawn a thread to do it again — becomes distributed without rewriting:
   the runtime places objects in the global heap, threads may run on other
   servers, and dereferences fetch or move objects per the ownership-
   guided coherence protocol.

   Run with:  dune exec examples/quickstart.exe
   It exits 1 if a value differs from the one it expects, or if the
   spawn_to closure ran anywhere but on the node serving a.val (the
   @smoke alias runs it). *)

module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module Dbox = Drust_core.Dbox
module Dthread = Drust_runtime.Dthread
module Darc = Drust_runtime.Darc
module Dmutex = Drust_runtime.Dmutex
module Univ = Drust_util.Univ

let int_tag : int Univ.tag = Univ.create_tag ~name:"quickstart.int"

(* pub struct Accumulator { pub val: Box<i32> } — the owner box lives in
   the global heap; [add] mutably borrows it. *)
type accumulator = { value : int Dbox.t }

let add ctx acc delta =
  Dbox.with_borrow_mut ctx acc.value (fun v -> (v + delta, v + delta))

let ok = ref true

let expect what got want =
  if got <> want then begin
    Printf.eprintf "quickstart: %s is %d, expected %d\n" what got want;
    ok := false
  end

let () =
  let params = { Params.default with Params.nodes = 4 } in
  let cluster = Cluster.create params in
  Ctx.run_main cluster (fun ctx ->

      (* let val = Box::new(5); let b = Box::new(10); *)
      let acc = { value = Dbox.make ctx ~tag:int_tag ~size:8 5 } in
      let b = Dbox.make ctx ~tag:int_tag ~size:8 10 in

      (* Synchronous add: both values are (fetched) local. *)
      let local_add = add ctx acc (Dbox.read ctx b) in
      Printf.printf "local add   : a.val = %d (expected 15)\n" local_add;
      expect "local add" local_add 15;

      (* thread::spawn(move || a.add(&b)) — only the pointers ship to
         the remote thread: the immutable reference &b is dereferenced
         there, which fetches b's value into node 2's cache. *)
      let b_ref = Dbox.Imm.borrow ctx b in
      let t =
        Dthread.spawn_on ctx ~node:2 (fun worker ->
            let remote_add = add worker acc (Dbox.Imm.deref worker b_ref) in
            Printf.printf "remote add  : a.val = %d on node %d (expected 25)\n"
              remote_add worker.Ctx.node;
            expect "remote add" remote_add 25)
      in
      Dthread.join ctx t;

      (* spawn_to (Listing 4): run the closure where a.val lives, so
         the dereference inside add is guaranteed local. *)
      let home =
        Cluster.serving_node cluster
          (Drust_memory.Gaddr.node_of (Dbox.gaddr acc.value))
      in
      let t2 =
        Dthread.spawn_to ctx (Dbox.owner acc.value) (fun worker ->
            let affine_add = add worker acc 10 in
            Printf.printf "spawn_to add: a.val = %d on node %d (expected 35)\n"
              affine_add worker.Ctx.node;
            expect "spawn_to add" affine_add 35;
            expect "spawn_to node" worker.Ctx.node home)
      in
      Dthread.join ctx t2;

      let final = Dbox.read ctx acc.value in
      Printf.printf "final value : %d\n" final;
      expect "final value" final 35;
      Printf.printf "object ended on node %d after %d protocol moves\n"
        (Drust_memory.Gaddr.node_of (Dbox.gaddr acc.value))
        (Drust_core.Protocol.moves ctx);
      Dbox.drop ctx acc.value;

      (* let step = Arc::new(1); let total = Mutex::new(0);
         thread::scope(|s| for n in 1..=3 {
           let step = step.clone();
           s.spawn(|| *total.lock() += *b + *step) });
         Scoped threads may borrow from the enclosing frame: each gets
         its own copy of the reference &b.  Each also clones the Arc
         where it runs and reads the shared value through its node's
         cache, then adds under the lock; the scope joins all three
         before it returns. *)
      let step = Darc.create ctx ~size:8 (Univ.pack int_tag 1) in
      let total = Dmutex.create ctx ~size:8 (Univ.pack int_tag 0) in
      Dthread.scope ctx (fun s ->
          for node = 1 to 3 do
            let r = Dbox.Imm.clone ctx b_ref in
            ignore
              (Dthread.spawn_in s ~node (fun worker ->
                   let mine = Darc.clone worker step in
                   let v =
                     Dbox.Imm.deref worker r
                     + Univ.unpack_exn int_tag (Darc.get worker mine)
                   in
                   Dmutex.with_lock worker total (fun t ->
                       (Univ.pack int_tag (Univ.unpack_exn int_tag t + v), ()));
                   Darc.drop worker mine;
                   Dbox.Imm.drop worker r))
          done);
      Dmutex.lock ctx total;
      let sum = Univ.unpack_exn int_tag (Dmutex.read_guarded ctx total) in
      Dmutex.unlock ctx total;
      Printf.printf "scoped sum  : %d from 3 threads (expected 33)\n" sum;
      expect "scoped sum" sum 33;
      expect "arc count after the scope" (Darc.strong_count ctx step) 1;
      Darc.drop ctx step;
      Dbox.Imm.drop ctx b_ref;
      Dbox.drop ctx b);
  Printf.printf "simulated time: %s\n"
    (Format.asprintf "%a" Drust_util.Units.pp_seconds (Cluster.now cluster));
  if not !ok then exit 1
