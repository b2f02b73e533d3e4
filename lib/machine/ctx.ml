module Engine = Drust_sim.Engine
module Resource = Drust_sim.Resource

type cpu = { mutable pending_cycles : float }

type t = {
  cluster : Cluster.t;
  thread_id : int;
  mutable node : int;
  rng : Drust_util.Rng.t;
  cpu : cpu;
  mutable local_alloc_bytes : int;
  remote_accesses : int array;
  mutable safe_point_hook : (t -> unit) option;
  mutable current_span : Drust_obs.Span.span option;
  mutable op_kind : int;
  mutable layer_cache : exn;
}

let make cluster ~node =
  if node < 0 || node >= Cluster.node_count cluster then
    invalid_arg "Ctx.make: node out of range";
  let id = Cluster.fresh_thread_id cluster in
  {
    cluster;
    thread_id = id;
    node;
    rng = Drust_util.Rng.split (Cluster.rng cluster);
    cpu = { pending_cycles = 0.0 };
    local_alloc_bytes = 0;
    remote_accesses = Array.make (Cluster.node_count cluster) 0;
    safe_point_hook = None;
    current_span = None;
    op_kind = -1;
    layer_cache = Not_found;
  }

let cluster t = t.cluster
let current_node t = Cluster.node t.cluster t.node
let engine t = Cluster.engine t.cluster
let fabric t = Cluster.fabric t.cluster
let params t = Cluster.params t.cluster
let[@inline] tap t = (Cluster.tap t.cluster).Drust_memory.Tap.sub
let[@inline] emit t f ev = f ~node:t.node ~thread:t.thread_id ev

let safe_point t =
  match t.safe_point_hook with None -> () | Some hook -> hook t

(* A span on this thread's node timeline under its current operation,
   or [Span.null] when untraced. *)
let cpu_span t spans ~category name =
  if Drust_obs.Span.is_enabled spans then
    Drust_obs.Span.start spans ~track:t.node ?parent:t.current_span ~category
      name
  else Drust_obs.Span.null

(* Run the pending compute: wait for a core ([cpu.queue]), then hold it
   for the compute time ([cpu.compute]).  The spans only observe, so
   traced and untraced runs are bit-identical; a delay never raises, so
   the core needs no release-on-exception. *)
let flush t =
  safe_point t;
  let cycles = t.cpu.pending_cycles in
  if cycles > 0.0 then begin
    t.cpu.pending_cycles <- 0.0;
    let seconds = Params.cycles_to_seconds (params t) cycles in
    let cores = (current_node t).Cluster.cores in
    let spans = Cluster.spans t.cluster in
    let wait = cpu_span t spans ~category:"cpu.queue" "core_wait" in
    Resource.acquire cores;
    Drust_obs.Span.finish spans wait;
    let run = cpu_span t spans ~category:"cpu.compute" "compute" in
    Engine.delay (engine t) seconds;
    Drust_obs.Span.finish spans run;
    Resource.release cores
  end

let charge_cycles t cycles =
  if not (cycles >= 0.0) then invalid_arg "Ctx.charge_cycles: negative or NaN";
  let pending = t.cpu.pending_cycles +. cycles in
  t.cpu.pending_cycles <- pending;
  let p = params t in
  if Params.cycles_to_seconds p pending >= p.Params.flush_grain then flush t

let compute t ~cycles =
  if not (cycles >= 0.0) then invalid_arg "Ctx.compute: negative or NaN";
  t.cpu.pending_cycles <- t.cpu.pending_cycles +. cycles;
  flush t

let note_remote_access t ~target =
  if target <> t.node then
    t.remote_accesses.(target) <- t.remote_accesses.(target) + 1

let note_local_alloc t ~bytes = t.local_alloc_bytes <- t.local_alloc_bytes + bytes

let remote_access_total t = Array.fold_left ( + ) 0 t.remote_accesses

let hottest_remote_node t =
  let best = ref (-1) and best_count = ref 0 in
  Array.iteri
    (fun i c ->
      if i <> t.node && c > !best_count then begin
        best := i;
        best_count := c
      end)
    t.remote_accesses;
  if !best < 0 then None else Some !best
