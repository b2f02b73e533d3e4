module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Protocol = Drust_core.Protocol
module Dmutex = Drust_runtime.Dmutex
module Gaddr = Drust_memory.Gaddr
module Univ = Drust_util.Univ

type Dsm.handle += H of Protocol.owner
type Dsm.mutex += M of Dmutex.t

let unit_tag : unit Univ.tag = Univ.create_tag ~name:"drust.mutex.unit"

let owner_of = function H o -> o | _ -> Dsm.foreign "drust"
let mutex_of = function M m -> m | _ -> Dsm.foreign "drust"

(* The Dsm interface lets applications race a reader against a writer on
   the same object (e.g. polling a shared index entry while its builder
   publishes it).  Under real DRust such code holds borrows for an
   instant each; when two instants collide, the loser simply borrows a
   moment later.  We model that by retrying the borrow after a short
   backoff when the dynamic checker reports a conflict. *)
let max_tries = 200_000

let backoff ctx = Drust_sim.Engine.delay (Ctx.engine ctx) 1e-6

let rec with_borrow_retry ctx tries f =
  match f () with
  | v -> v
  | exception Drust_ownership.Borrow_state.Violation _ when tries < max_tries ->
      backoff ctx;
      with_borrow_retry ctx (tries + 1) f

(* The read path's retry loop, written out so that a read builds no
   closure. *)
let rec read_retry ctx o tries =
  match Protocol.read ctx o with
  | v -> v
  | exception Drust_ownership.Borrow_state.Violation _ when tries < max_tries ->
      backoff ctx;
      read_retry ctx o (tries + 1)

let create cluster =
  ignore cluster;
  {
    Dsm.name = "DRust";
    alloc = (fun ctx ~size v -> H (Protocol.create ctx ~size v));
    alloc_on = (fun ctx ~node ~size v -> H (Protocol.create_on ctx ~node ~size v));
    read = (fun ctx h -> read_retry ctx (owner_of h) 0);
    write =
      (fun ctx h v ->
        let o = owner_of h in
        with_borrow_retry ctx 0 (fun () ->
            let m = Protocol.borrow_mut ctx o in
            Protocol.mut_write ctx m v;
            Protocol.drop_mut ctx m));
    update =
      (fun ctx h f ->
        let o = owner_of h in
        with_borrow_retry ctx 0 (fun () ->
            let m = Protocol.borrow_mut ctx o in
            Protocol.mut_modify ctx m f;
            Protocol.drop_mut ctx m));
    free = (fun ctx h -> Protocol.drop_owner ctx (owner_of h));
    read_part = (fun ctx h ~bytes:_ -> ignore (read_retry ctx (owner_of h) 0));
    process =
      (fun ctx h ~cycles ->
        let v = read_retry ctx (owner_of h) 0 in
        Ctx.compute ctx ~cycles;
        v);
    process_update =
      (fun ctx h ~cycles f ->
        let o = owner_of h in
        with_borrow_retry ctx 0 (fun () ->
            let m = Protocol.borrow_mut ctx o in
            Protocol.mut_modify ctx m f;
            Protocol.drop_mut ctx m);
        Ctx.compute ctx ~cycles);
    home =
      (fun h ->
        let o = owner_of h in
        Gaddr.node_of (Protocol.gaddr o));
    tie =
      (fun ctx ~parent ~child ->
        Protocol.tie ctx ~parent:(owner_of parent) ~child:(owner_of child));
    supports_affinity = true;
    mutex_create =
      (fun ctx -> M (Dmutex.create ctx ~size:8 (Univ.pack unit_tag ())));
    mutex_lock =
      (fun ctx m ->
        (Dmutex.lock ctx (mutex_of m)
        [@dlint.allow
          "ownership: vtable delegation — the Dsm API pairs lock/unlock at \
           the call site and DSan's lock_discipline invariant enforces it"]));
    mutex_unlock = (fun ctx m -> Dmutex.unlock ctx (mutex_of m));
  }
