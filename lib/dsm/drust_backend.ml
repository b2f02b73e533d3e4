module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Protocol = Drust_core.Protocol
module Dmutex = Drust_runtime.Dmutex
module Gaddr = Drust_memory.Gaddr
module Univ = Drust_util.Univ

type Dsm.handle += H of Protocol.owner
type Dsm.mutex += M of Dmutex.t

let unit_tag : unit Univ.tag = Univ.create_tag ~name:"drust.mutex.unit"

(* Every mutex guards the same immutable unit payload: packed once, not
   once per [mutex_create]. *)
let unit_payload = Univ.pack unit_tag ()

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

(* The retry loops, written out so that an access builds no closure.
   A write borrows mutably, applies [op] ([Protocol.mut_write] or
   [Protocol.mut_modify]) to its operand [x], and returns the borrow. *)
let rec mut_retry ctx o op x tries =
  match
    let m = Protocol.borrow_mut ctx o in
    op ctx m x;
    Protocol.drop_mut ctx m
  with
  | () -> ()
  | exception Drust_ownership.Borrow_state.Violation _ when tries < max_tries ->
      backoff ctx;
      mut_retry ctx o op x (tries + 1)

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
    write = (fun ctx h v -> mut_retry ctx (owner_of h) Protocol.mut_write v 0);
    update =
      (fun ctx h f -> mut_retry ctx (owner_of h) Protocol.mut_modify f 0);
    free = (fun ctx h -> Protocol.drop_owner ctx (owner_of h));
    read_part = (fun ctx h ~bytes:_ -> ignore (read_retry ctx (owner_of h) 0));
    process =
      (fun ctx h ~cycles ->
        let v = read_retry ctx (owner_of h) 0 in
        Ctx.compute ctx ~cycles;
        v);
    process_update =
      (fun ctx h ~cycles f ->
        mut_retry ctx (owner_of h) Protocol.mut_modify f 0;
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
      (fun ctx -> M (Dmutex.create ctx ~size:8 unit_payload));
    mutex_lock =
      (fun ctx m ->
        (Dmutex.lock ctx (mutex_of m)
        [@dlint.allow
          "ownership: vtable delegation — the Dsm API pairs lock/unlock at \
           the call site and DSan's lock_discipline invariant enforces it"]));
    mutex_unlock = (fun ctx m -> Dmutex.unlock ctx (mutex_of m));
  }
