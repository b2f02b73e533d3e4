module Engine = Drust_sim.Engine
module Resource = Drust_sim.Resource
module Fabric = Drust_net.Fabric
module Gaddr = Drust_memory.Gaddr
module Partition = Drust_memory.Partition
module Cache = Drust_memory.Cache
module Metrics = Drust_obs.Metrics
module Span = Drust_obs.Span
module Flight = Drust_obs.Flight

type node = {
  id : int;
  cores : Resource.t;
  partition : Partition.t;
  cache : Cache.t;
  mutable alive : bool;
}

type t = {
  engine : Engine.t;
  fabric : Fabric.t;
  params : Params.t;
  nodes : node array;
  serving : int array; (* serving.(home) = node currently serving home's range *)
  range_store : Partition.t array;
      (* partition object backing each home range; swapped on promotion *)
  rng : Drust_util.Rng.t;
  metrics : Metrics.t;
  spans : Span.t;
  flight : Flight.t;
  tap : Drust_memory.Tap.t;
  env : Env.t;
      (* per-cluster state of every higher layer (protocol state,
         thread registry, ...): dies with the cluster *)
  next_thread_id : int Atomic.t;
}

(* Called on every freshly created cluster.  This is how process-wide
   tooling (the DSan sanitizer's --sanitize flag) reaches clusters that
   experiments create internally, without threading a parameter through
   every call site.  The hook must not touch the engine or any RNG, and
   it may run in whichever domain creates the cluster. *)
let create_hook : (t -> unit) option Atomic.t =
  Atomic.make None
[@@dlint.allow
  "globals: the process-wide creation hook is how --sanitize reaches \
   internally created clusters; set once at startup, atomic"]
let set_create_hook h = Atomic.set create_hook h

let create ?engine params =
  let engine = match engine with Some e -> e | None -> Engine.create () in
  let rng = Drust_util.Rng.create ~seed:params.Params.seed in
  (* One registry and one (disabled-by-default) span tracer per cluster:
     every layer reports into these.  Recording never touches the engine
     or any RNG, so instrumented runs stay bit-identical. *)
  let metrics = Metrics.create () in
  let spans = Span.create ~clock:(Engine.clock engine) () in
  (* The flight recorder is always on: a bounded black box behind every
     layer, dumped on failure for post-mortems (docs/FORENSICS.md).
     Like the tracer it is purely observational — array stores only. *)
  let flight = Flight.create ~metrics ~nodes:params.Params.nodes () in
  (* One observation slot for every layer's transitions, caches included
     (empty until a sanitizer subscribes). *)
  let tap = Drust_memory.Tap.create () in
  let fabric =
    Fabric.create ~metrics ~spans ~flight ~engine
      ~rng:(Drust_util.Rng.split rng)
      ~model:params.Params.net ~nodes:params.Params.nodes
  in
  let make_node id =
    {
      id;
      cores = Resource.create engine ~capacity:params.Params.cores_per_node;
      partition =
        Partition.create ~node:id ~capacity_bytes:params.Params.mem_per_node;
      cache = Cache.create ~metrics ~tap ~node:id ();
      alive = true;
    }
  in
  let nodes = Array.init params.Params.nodes make_node in
  let t =
    {
      engine;
      fabric;
      params;
      nodes;
      serving = Array.init params.Params.nodes (fun i -> i);
      range_store = Array.map (fun n -> n.partition) nodes;
      rng;
      metrics;
      spans;
      flight;
      tap;
      env = Env.create ();
      next_thread_id = Atomic.make 0;
    }
  in
  (match Atomic.get create_hook with None -> () | Some h -> h t);
  t

let env t = t.env
let fresh_thread_id t = Atomic.fetch_and_add t.next_thread_id 1

let engine t = t.engine
let fabric t = t.fabric
let params t = t.params
let rng t = t.rng
let metrics t = t.metrics
let spans t = t.spans
let flight t = t.flight
let tap t = t.tap

let node_count t = Array.length t.nodes

let node t i =
  if i < 0 || i >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Cluster.node: %d out of range" i);
  t.nodes.(i)

let nodes t = t.nodes

let alive_nodes t =
  Array.to_list t.nodes
  |> List.filter_map (fun n -> if n.alive then Some n.id else None)

let serving_node t home =
  if home < 0 || home >= Array.length t.serving then
    invalid_arg "Cluster.serving_node: out of range";
  t.serving.(home)

let serving_store t home =
  if home < 0 || home >= Array.length t.range_store then
    invalid_arg "Cluster.serving_store: out of range";
  t.range_store.(home)

let promote t ~home ~by ~store =
  if Partition.node store <> home then
    invalid_arg "Cluster.promote: store must mint addresses in the home range";
  t.serving.(home) <- by;
  t.range_store.(home) <- store;
  (* Purge the whole range from every alive cache before serving
     resumes: a promoted replica may lag the lost primary (write-backs
     are batched), so copies fetched from the primary can hold exactly
     the writes the failover rolled back, under colored addresses that
     are still current; after a planned handoff the new server's copy is
     the authority. *)
  Array.iter
    (fun nd -> if nd.alive then ignore (Cache.invalidate_home nd.cache ~home))
    t.nodes

let mark_failed t i =
  let n = node t i in
  n.alive <- false

let partition_of t a = t.range_store.(Gaddr.node_of a)

(* Allocation "on" node [i] goes to whatever store currently backs [i]'s
   address range — the node's own partition, or its promoted backup after
   a failure (addresses keep carrying the home range id either way). *)
let heap_alloc t ~node:i ~size v = Partition.alloc t.range_store.(i) ~size v

let heap_read t a = Partition.get (partition_of t a) a
let heap_write t a v = Partition.set (partition_of t a) a v
let heap_free t a = Partition.free (partition_of t a) a
let heap_mem t a = Partition.mem (partition_of t a) a

let most_vacant_node t =
  let best = ref (-1) in
  let best_usage = ref Float.infinity in
  Array.iter
    (fun n ->
      if n.alive then begin
        let usage = Partition.usage_fraction n.partition in
        if usage < !best_usage then begin
          best := n.id;
          best_usage := usage
        end
      end)
    t.nodes;
  if !best < 0 then failwith "Cluster.most_vacant_node: no node alive";
  !best

(* Failover and membership transitions are rare, so the caller builds
   the event whether or not anyone subscribes.  The flight field layout
   of their kinds is decided here, and must match [Flight.pp_event] and
   docs/FORENSICS.md. *)
let record t ~node kind ~a ~b ~c ~d =
  Flight.record t.flight ~node ~time:(Engine.now t.engine) ~kind ~a ~b ~c ~d

let transition t ~node (ev : Drust_memory.Tap.event) =
  (match ev with
  | View_change { epoch; reason = _ } ->
      record t ~node Flight.k_view_change ~a:epoch ~b:0 ~c:0 ~d:0
  | Handoff_prepared { home; from_node; to_node } ->
      record t ~node Flight.k_handoff_prepare ~a:home ~b:from_node ~c:to_node
        ~d:0
  | Handoff_aborted { home; from_node; to_node; reason = _ } ->
      record t ~node Flight.k_handoff_abort ~a:home ~b:from_node ~c:to_node
        ~d:0
  | Handoff_committed { home; from_node; to_node; epoch } ->
      record t ~node Flight.k_handoff_commit ~a:home ~b:from_node ~c:to_node
        ~d:epoch
  | Chain_reseeded { home; server; hosts } ->
      record t ~node Flight.k_chain_reseed ~a:home ~b:server
        ~c:(List.length hosts) ~d:0
  | Node_failed { node = failed } ->
      record t ~node Flight.k_node_failed ~a:failed ~b:0 ~c:0 ~d:0
  | Promoted { home; by; replica } ->
      record t ~node Flight.k_promoted ~a:home ~b:by ~c:replica ~d:0
  | _ -> invalid_arg "Cluster.transition: not a failover or membership event");
  match t.tap.sub with None -> () | Some f -> f ~node ~thread:(-1) ev

let run t = Engine.run t.engine
let[@inline] now t = Engine.now t.engine
