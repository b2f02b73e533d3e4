module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Engine = Drust_sim.Engine
module Resource = Drust_sim.Resource
module Fabric = Drust_net.Fabric
module Univ = Drust_util.Univ
module Intmap = Drust_util.Intmap
module Dsm = Drust_dsm.Dsm

(* The aggregation delay models Grappa's message batching: a delegation
   waits in the sender-side aggregator until its destination buffer
   flushes.  At the modest concurrency of these applications the flush is
   timeout-driven, which is the known cause of Grappa's poor latency on
   sparse traffic (and of the paper's 2-node collapse in Fig. 5d). *)
let aggregation_delay = 40e-6 (* flush timeout: the worst-case wait *)
let delegate_cycles = 1500.0 (* home-core cycles to run one delegation *)
let local_overhead = 0.35e-6 (* delegation overhead when home = caller *)

type t = {
  cluster : Cluster.t;
  workers : Resource.t array; (* per-node delegation worker cores *)
  (* Adaptive aggregation: a message waits until its batch fills or the
     flush timeout fires.  We track an EWMA of each node's inter-send gap;
     the expected wait is a few gaps (batch fill) capped by the timeout.
     Busy senders therefore see low aggregation latency, sparse senders
     eat the timeout — Grappa's characteristic behaviour. *)
  last_send : float array array; (* per (src, dst) pair *)
  gap_ewma : float array array;
  store : Univ.t Intmap.t;
  (* Per-object serialization: Grappa runs delegations for one object on
     one core, so they never interleave. *)
  object_units : Resource.t Intmap.t;
  mutable next_oid : int;
  mutable count : int;
}

type handle = { oid : int; obj_home : int; size : int }

let create cluster =
  let cores = (Cluster.params cluster).Drust_machine.Params.cores_per_node in
  {
    cluster;
    workers =
      Array.init (Cluster.node_count cluster) (fun _ ->
          Resource.create (Cluster.engine cluster) ~capacity:(max 1 cores));
    last_send =
      Array.init (Cluster.node_count cluster) (fun _ ->
          Array.make (Cluster.node_count cluster) 0.0);
    gap_ewma =
      Array.init (Cluster.node_count cluster) (fun _ ->
          Array.make (Cluster.node_count cluster) 1e-3);
    store = Intmap.create ~capacity:4096 ();
    object_units = Intmap.create ~capacity:4096 ();
    next_oid = 0;
    count = 0;
  }

(* Block for [cycles] of home-core time. *)
let compute_at_home t cycles =
  Engine.delay (Cluster.engine t.cluster)
    (Drust_machine.Params.cycles_to_seconds (Cluster.params t.cluster) cycles)

(* Run [work t h x] on one of [home]'s delegation worker cores, after
   the fixed delegation cost.  The core is released on exception, like
   [Resource.use], without its closure. *)
let run_at_home t ~home work h x =
  let worker = t.workers.(home) in
  Resource.acquire worker;
  match
    compute_at_home t delegate_cycles;
    work t h x
  with
  | v ->
      Resource.release worker;
      v
  | exception e ->
      Resource.release worker;
      raise e

(* Aggregation wait of one message from [src] to [dst]; updates the
   pair's inter-send gap EWMA.  The clamp is [Float.min timeout
   (Float.max 1e-6 x)] written out (NaN included) so no float crosses a
   call boxed. *)
let[@inline] aggregation_wait t src dst =
  let now = Engine.now (Cluster.engine t.cluster) in
  let gap = now -. t.last_send.(src).(dst) in
  t.last_send.(src).(dst) <- now;
  let ewma = (0.8 *. t.gap_ewma.(src).(dst)) +. (0.2 *. gap) in
  t.gap_ewma.(src).(dst) <- ewma;
  let fill = 2.0 *. ewma in
  let fill = if fill < 1e-6 then 1e-6 else fill in
  let timeout = aggregation_delay in
  if fill > timeout then timeout else fill

(* Ship [work t h x] to [home].  [work] is a toplevel function, so the
   only closure a delegation builds is the RPC handler. *)
let delegate t ctx ~home ~req_bytes ~resp_bytes work h x =
  t.count <- t.count + 1;
  let engine = Cluster.engine t.cluster in
  if home = ctx.Ctx.node then begin
    (* Local delegation skips the network but still hops through the
       delegation queue. *)
    Ctx.flush ctx;
    Engine.delay engine local_overhead;
    run_at_home t ~home work h x
  end
  else begin
    Ctx.note_remote_access ctx ~target:home;
    Ctx.flush ctx;
    (* Sender-side aggregation batches small messages... *)
    Engine.delay engine (aggregation_wait t ctx.Ctx.node home);
    let v =
      Fabric.rpc (Cluster.fabric t.cluster) ~from:ctx.Ctx.node ~target:home
        ~req_bytes ~resp_bytes (fun () -> run_at_home t ~home work h x)
    in
    (* ...and so does the reply path. *)
    Engine.delay engine (aggregation_wait t home ctx.Ctx.node);
    v
  end

let object_unit t oid =
  match Intmap.find t.object_units oid with
  | r -> r
  | exception Not_found ->
      let r = Resource.create (Cluster.engine t.cluster) ~capacity:1 in
      Intmap.set t.object_units oid r;
      r

(* Run [work t h x] holding [h]'s object unit (Grappa runs delegations
   for one object on one core), released on exception like
   [Resource.use] but without its closure. *)
let serialized t h work x =
  let u = object_unit t h.oid in
  Resource.acquire u;
  match work t h x with
  | v ->
      Resource.release u;
      v
  | exception e ->
      Resource.release u;
      raise e

let alloc_on t ctx ~node ~size v =
  Ctx.charge_cycles ctx 150.0;
  let oid = t.next_oid in
  t.next_oid <- oid + 1;
  Intmap.set t.store oid v;
  { oid; obj_home = node; size }

let alloc t ctx ~size v = alloc_on t ctx ~node:ctx.Ctx.node ~size v

let home h = h.obj_home

let get_value t h =
  match Intmap.find t.store h.oid with
  | v -> v
  | exception Not_found -> invalid_arg "Grappa: freed object"

let read_at_home t h () = get_value t h
let serialized_read t h () = serialized t h read_at_home ()

let read t ctx h =
  delegate t ctx ~home:h.obj_home ~req_bytes:64 ~resp_bytes:h.size
    serialized_read h ()

let read_part_at_home t h () = ignore (get_value t h)

(* Compute ships to the data: the work runs on the home's delegation
   worker, serialized per object — a hot object's home core becomes the
   bottleneck under skew, exactly the paper's observation. *)
let read_part t ctx h ~bytes =
  delegate t ctx ~home:h.obj_home ~req_bytes:64 ~resp_bytes:(min h.size bytes)
    read_part_at_home h ()

let process_at_home t h cycles =
  compute_at_home t cycles;
  get_value t h

let serialized_process t h cycles = serialized t h process_at_home cycles

let process t ctx h ~cycles =
  delegate t ctx ~home:h.obj_home ~req_bytes:64 ~resp_bytes:(min h.size 512)
    serialized_process h cycles

let update_at_home t h f = Intmap.set t.store h.oid (f (get_value t h))

let process_update_at_home t h (cycles, f) =
  compute_at_home t cycles;
  update_at_home t h f

let serialized_process_update t h cf =
  serialized t h process_update_at_home cf

let process_update t ctx h ~cycles f =
  delegate t ctx ~home:h.obj_home ~req_bytes:96 ~resp_bytes:8
    serialized_process_update h (cycles, f)

let write_at_home t h v = Intmap.set t.store h.oid v
let serialized_write t h v = serialized t h write_at_home v

let write t ctx h v =
  delegate t ctx ~home:h.obj_home ~req_bytes:(64 + h.size) ~resp_bytes:8
    serialized_write h v

let serialized_update t h f = serialized t h update_at_home f

let update t ctx h f =
  delegate t ctx ~home:h.obj_home ~req_bytes:96 ~resp_bytes:8
    serialized_update h f

let free t ctx h =
  Ctx.charge_cycles ctx 60.0;
  Intmap.remove t.store h.oid;
  Intmap.remove t.object_units h.oid

let delegations t = t.count

type Dsm.handle += H of handle
type Dsm.mutex += M of unit

let handle_of = function H h -> h | _ -> Dsm.foreign "grappa"

let backend t =
  {
    Dsm.name = "Grappa";
    alloc = (fun ctx ~size v -> H (alloc t ctx ~size v));
    alloc_on = (fun ctx ~node ~size v -> H (alloc_on t ctx ~node ~size v));
    read = (fun ctx h -> read t ctx (handle_of h));
    write = (fun ctx h v -> write t ctx (handle_of h) v);
    update = (fun ctx h f -> update t ctx (handle_of h) f);
    free = (fun ctx h -> free t ctx (handle_of h));
    read_part = (fun ctx h ~bytes -> read_part t ctx (handle_of h) ~bytes);
    process = (fun ctx h ~cycles -> process t ctx (handle_of h) ~cycles);
    process_update =
      (fun ctx h ~cycles f -> process_update t ctx (handle_of h) ~cycles f);
    home = (fun h -> home (handle_of h));
    tie = (fun _ctx ~parent:_ ~child:_ -> ());
    supports_affinity = false;
    (* Delegation already serializes conflicting accesses at the home
       core, so Grappa-style code needs no separate lock. *)
    mutex_create = (fun _ctx -> M ());
    mutex_lock = (fun _ctx _m -> ());
    mutex_unlock = (fun _ctx _m -> ());
  }
