module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Dsm = Drust_dsm.Dsm
module Dthread = Drust_runtime.Dthread
module Appkit = Drust_appkit.Appkit
module Ycsb = Drust_workloads.Ycsb

type config = {
  keys : int;
  buckets : int;
  bucket_bytes : int;
  ops : int;
  clients_per_node : int;
  get_ratio : float;
  theta : float;
  intensity : float;
  workload : Ycsb.workload option;
      (* None = the paper's 90/10 mix; Some w = a YCSB core workload *)
}

(* One client thread per core (Memcached-style worker threads): remote
   latency directly cuts per-core throughput, which produces the 2-node
   dip of Fig. 5d.  Value processing costs intensity x value_bytes cycles
   and runs OUTSIDE the bucket lock; the chain walk under the lock is a
   few hundred cycles. *)
let default_config =
  {
    keys = 4_000_000;
    buckets = 65_536;
    bucket_bytes = 2048;
    ops = 40_000;
    clients_per_node = 16;
    get_ratio = 0.9;
    theta = 0.99;
    intensity = 48.0;
    workload = None;
  }

let value_bytes cfg = cfg.bucket_bytes / 4
let chain_walk_cycles = 600.0

type bucket = { data : Dsm.handle; lock : Dsm.mutex }

(* Install a value in [b] under its mutex, unlocking on exception.  The
   bracket is inline: a closure handed to a lock helper would be built
   on every SET. *)
let locked_update (backend : Dsm.t) ctx b =
  backend.Dsm.mutex_lock ctx b.lock;
  match
    backend.Dsm.process_update ctx b.data ~cycles:chain_walk_cycles Fun.id
  with
  | () -> backend.Dsm.mutex_unlock ctx b.lock
  | exception e ->
      backend.Dsm.mutex_unlock ctx b.lock;
      raise e

(* A read-modify-write of [b] under its mutex: read and process the
   value, then install the new one. *)
let locked_rmw (backend : Dsm.t) ctx b ~get_cycles =
  backend.Dsm.mutex_lock ctx b.lock;
  match
    ignore (backend.Dsm.process ctx b.data ~cycles:get_cycles);
    backend.Dsm.process_update ctx b.data ~cycles:chain_walk_cycles Fun.id
  with
  | () -> backend.Dsm.mutex_unlock ctx b.lock
  | exception e ->
      backend.Dsm.mutex_unlock ctx b.lock;
      raise e

let run ~cluster ~(backend : Dsm.t) cfg =
  if cfg.buckets <= 0 || cfg.ops <= 0 then invalid_arg "Kvstore.run: empty workload";
  Appkit.run_main cluster (fun ctx ->
      let nodes = Cluster.node_count cluster in
      let zipf = Drust_util.Zipf.create ~n:cfg.keys ~theta:cfg.theta in
      (* Build the table: bucket objects and their mutexes co-located,
         spread round-robin.  Every bucket starts from the one packed
         empty value: a payload is immutable, and updates replace it. *)
      let empty = Appkit.payload_of_int 0 in
      let table =
        Array.init cfg.buckets (fun b ->
            let node = b mod nodes in
            let data =
              backend.Dsm.alloc_on ctx ~node ~size:cfg.bucket_bytes empty
            in
            (* The mutex must live with its bucket: create it from a
               context pinned to that node. *)
            let mctx = Ctx.make cluster ~node in
            let lock = backend.Dsm.mutex_create mctx in
            { data; lock })
      in
      Appkit.start_measurement ctx;
      let gets = ref 0 and sets = ref 0 in
      let latencies = Drust_util.Stats.create () in
      (* Thread-per-core clients: never oversubscribe small nodes, so
         remote latency stays visible (Fig. 7's fixed-resource split). *)
      let cores = (Cluster.params cluster).Drust_machine.Params.cores_per_node in
      let n_clients = nodes * min cfg.clients_per_node cores in
      let ops_per_client = max 1 (cfg.ops / n_clients) in
      let value_cycles = cfg.intensity *. Float.of_int (value_bytes cfg) in
      (* The reads' cycle counts, computed once: a float computed at a
         call through a [Dsm.t] field is boxed on every call. *)
      let get_cycles = chain_walk_cycles +. value_cycles in
      let scan_item_cycles = chain_walk_cycles +. (value_cycles /. 4.0) in
      let client c =
        Dthread.spawn_on ctx ~node:(c mod nodes) (fun cctx ->
            let gen =
              match cfg.workload with
              | None ->
                  Ycsb.with_zipf ~zipf ~get_ratio:cfg.get_ratio ~seed:(1000 + c)
              | Some w ->
                  Ycsb.create_workload w ~zipf ~keys:cfg.keys ~seed:(1000 + c) ()
            in
            let bucket_of key =
              table.(key * 2654435761 land max_int mod cfg.buckets)
            in
            let do_get key =
              incr gets;
              (* GETs take a consistent snapshot without the bucket lock
                 (readers never block readers); the chain scan plus value
                 processing runs wherever the system executes reads — at
                 the client for DRust/GAM, at the bucket's home core for
                 Grappa. *)
              ignore
                (backend.Dsm.process cctx (bucket_of key).data
                   ~cycles:get_cycles)
            in
            let do_set key =
              incr sets;
              let b = bucket_of key in
              (* Prepare the new value outside the lock... *)
              Ctx.compute cctx ~cycles:(value_cycles /. 2.0);
              (* ...install it under the bucket mutex. *)
              locked_update backend cctx b
            in
            let engine = Ctx.engine cctx in
            for _ = 1 to ops_per_client do
              let op_start = Drust_sim.Engine.now engine in
              (match Ycsb.next gen with
              | Ycsb.Get key -> do_get key
              | Ycsb.Set key | Ycsb.Insert key -> do_set key
              | Ycsb.Scan (start, len) ->
                  (* Range reads walk consecutive buckets; each item costs
                     a fraction of a full value read. *)
                  incr gets;
                  let len = min len 100 in
                  for i = 0 to (len / 8) - 1 do
                    let b = table.((start + i) mod cfg.buckets) in
                    ignore
                      (backend.Dsm.process cctx b.data
                         ~cycles:scan_item_cycles)
                  done
              | Ycsb.Rmw key ->
                  incr sets;
                  locked_rmw backend cctx (bucket_of key) ~get_cycles);
              Ctx.flush cctx;
              Drust_util.Stats.add latencies
                (Drust_sim.Engine.now engine -. op_start)
            done)
      in
      let clients = List.init n_clients client in
      Dthread.join_all ctx clients;
      let total = Float.of_int (!gets + !sets) in
      ( total,
        [
          ("get_fraction", Float.of_int !gets /. Float.max 1.0 total);
          ("clients", Float.of_int n_clients);
          ("lat_p50_us", Drust_util.Stats.median latencies *. 1e6);
          ("lat_p99_us", Drust_util.Stats.percentile latencies 99.0 *. 1e6);
        ] ))
