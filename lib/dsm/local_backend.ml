module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Gaddr = Drust_memory.Gaddr
module Dmutex = Drust_runtime.Dmutex
module Univ = Drust_util.Univ

type Dsm.handle += H of Gaddr.t
type Dsm.mutex += M of Dmutex.t

let unit_tag : unit Univ.tag = Univ.create_tag ~name:"local.mutex.unit"

(* Every mutex guards the same immutable unit payload: packed once, not
   once per [mutex_create]. *)
let unit_payload = Univ.pack unit_tag ()

let gaddr_of = function H g -> g | _ -> Dsm.foreign "local"
let mutex_of = function M m -> m | _ -> Dsm.foreign "local"

(* Ordinary Rust pointer dereference cost (Table 2). *)
let deref_cycles = 364.0

let create cluster =
  ignore cluster;
  {
    Dsm.name = "Original";
    alloc =
      (fun ctx ~size v ->
        Ctx.charge_cycles ctx 90.0;
        H (Cluster.heap_alloc (Ctx.cluster ctx) ~node:ctx.Ctx.node ~size v));
    alloc_on =
      (fun ctx ~node ~size v ->
        Ctx.charge_cycles ctx 90.0;
        H (Cluster.heap_alloc (Ctx.cluster ctx) ~node ~size v));
    read =
      (fun ctx h ->
        Ctx.charge_cycles ctx deref_cycles;
        (Cluster.heap_read (Ctx.cluster ctx) (gaddr_of h))
          .Drust_memory.Partition.value);
    write =
      (fun ctx h v ->
        Ctx.charge_cycles ctx deref_cycles;
        Cluster.heap_write (Ctx.cluster ctx) (gaddr_of h) v);
    update =
      (fun ctx h f ->
        Ctx.charge_cycles ctx (2.0 *. deref_cycles);
        let cluster = Ctx.cluster ctx in
        let g = gaddr_of h in
        Cluster.heap_write cluster g
          (f (Cluster.heap_read cluster g).Drust_memory.Partition.value));
    free =
      (fun ctx h ->
        Ctx.charge_cycles ctx 60.0;
        Cluster.heap_free (Ctx.cluster ctx) (gaddr_of h));
    read_part =
      (fun ctx h ~bytes:_ ->
        ignore (gaddr_of h);
        Ctx.charge_cycles ctx deref_cycles);
    process =
      (fun ctx h ~cycles ->
        Ctx.charge_cycles ctx deref_cycles;
        let v =
          (Cluster.heap_read (Ctx.cluster ctx) (gaddr_of h))
            .Drust_memory.Partition.value
        in
        Ctx.compute ctx ~cycles;
        v);
    process_update =
      (fun ctx h ~cycles f ->
        Ctx.charge_cycles ctx (2.0 *. deref_cycles);
        let cluster = Ctx.cluster ctx in
        let g = gaddr_of h in
        Cluster.heap_write cluster g
          (f (Cluster.heap_read cluster g).Drust_memory.Partition.value);
        Ctx.compute ctx ~cycles);
    home = (fun h -> Gaddr.node_of (gaddr_of h));
    tie = (fun _ctx ~parent:_ ~child:_ -> ());
    supports_affinity = false;
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
