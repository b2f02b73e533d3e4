module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Gaddr = Drust_memory.Gaddr
module Partition = Drust_memory.Partition
module Cache = Drust_memory.Cache
module Tap = Drust_memory.Tap
module Fabric = Drust_net.Fabric
module Borrow_state = Drust_ownership.Borrow_state
module Univ = Drust_util.Univ
module Metrics = Drust_obs.Metrics
module Span = Drust_obs.Span
module Flight = Drust_obs.Flight

type owner = {
  mutable g : Gaddr.t;
  size : int;
  borrow : Borrow_state.t;
  mutable box_node : int; (* node holding the owner box (the thread stack) *)
  mutable local_copy : Cache.copy option; (* extension field: cached copy *)
  mutable ubit : bool; (* extension field: color-updated bit *)
  mutable valid : bool;
  mutable children : owner list; (* TBox affinity children, in tie order *)
  mutable tied : bool; (* this owner is someone's affinity child *)
  mutable pinned : bool;
}

type imm = {
  i_g : Gaddr.t;
  i_size : int;
  i_group : int; (* batched fetch size: owner + affinity children *)
  i_borrow : Borrow_state.t;
  i_children : owner list;
  mutable i_copy : Cache.copy option;
  mutable i_live : bool;
}

type mut = {
  mutable m_g : Gaddr.t;
  m_size : int;
  m_owner : owner;
  mutable m_ubit : bool;
  mutable m_live : bool;
}

(* ------------------------------------------------------------------ *)
(* Per-cluster protocol state.

   Everything the protocol keeps per cluster — stat counters, op-latency
   histograms, ablation switches, fault-tolerance listeners, and the
   owner registry — lives in ONE record under a single Env key, and the
   resolved record is cached on the Ctx.  Hot
   operations therefore read a field of an already-resolved pointer
   instead of hashing into the Env (and then into a string-keyed
   histogram table) on every access. *)

module Env = Drust_machine.Env

type stats = {
  moves : Metrics.counter;
  bumps : Metrics.counter;
  fetches : Metrics.counter;
}

(* ------------------------------------------------------------------ *)
(* Per-op-kind latency histograms (protocol.op_latency{op=...}).  The
   kind is the operation's *outcome* — which access path a read took,
   how a write changed the colored address — decided at the same branch
   points that emit the tap events.  Buckets are finer than the
   registry default because local derefs cost tens of nanoseconds while
   a contended move can take milliseconds. *)

let op_latency_buckets =
  [| 1e-8; 2e-8; 5e-8; 1e-7; 2e-7; 5e-7; 1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5;
     1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3; 1e-2 |]

(* Outcome kinds are Flight's codes [k_read_local] .. [k_drop]: dense
   indices into the histogram array, the values [Ctx.op_kind] carries
   while an operation is in flight, and the flight-recorder kinds of the
   same outcomes, recorded untranslated. *)
let op_labels = Array.sub Flight.kind_names 0 (Flight.k_drop + 1)

let register_op_hist cluster kind =
  Metrics.histogram (Cluster.metrics cluster) ~buckets:op_latency_buckets
    ~labels:[ ("op", kind) ] ~unit_:"s" "protocol.op_latency"

(* Ablation switches (per cluster): disable the local-write
   optimizations to quantify their contribution. *)
type options = { mutable always_move : bool; mutable no_ubit : bool }

type pstate = {
  mutable ps_hists : Metrics.histogram array;
      (* one histogram per op kind, indexed by the [k_*] constants;
         [[||]] until the first measured operation registers them — the
         same lazy timing the old per-piece Env cells had, so the
         metrics registry keeps its registration (and report) order *)
  mutable ps_stats : stats option;
      (* counters, registered on first increment/read as before *)
  ps_options : options;
  mutable ps_commit : (Ctx.t -> Gaddr.t -> int -> Univ.t -> unit) option;
  mutable ps_transfer : (Ctx.t -> Gaddr.t -> unit) option;
  mutable ps_registry : owner list;
}

let pstate_key : pstate Env.key = Env.key ~name:"protocol.state"

let fresh_pstate () =
  {
    ps_hists = [||];
    ps_stats = None;
    ps_options = { always_move = false; no_ubit = false };
    ps_commit = None;
    ps_transfer = None;
    ps_registry = [];
  }

let pstate_of_cluster cluster =
  Env.get (Cluster.env cluster) pstate_key ~init:fresh_pstate

(* Per-Ctx pointer cache: a Ctx is bound to one cluster for life, so the
   resolved pstate is stashed in the Ctx's [layer_cache] slot — encoded
   as an extensible-variant constructor, the same trick Env keys use —
   and every later access is a single constructor-tag match. *)
exception Pstate_cache of pstate

let pstate_of ctx =
  match ctx.Ctx.layer_cache with
  | Pstate_cache ps -> ps
  | _ ->
      let ps = pstate_of_cluster (Ctx.cluster ctx) in
      ctx.Ctx.layer_cache <- Pstate_cache ps;
      ps

let hists_of cluster ps =
  if Array.length ps.ps_hists = 0 then
    (* Register every kind eagerly so snapshots carry the same sample
       set on every cluster (mergeable) and the docs-catalogue check
       sees the name even on an idle cluster. *)
    ps.ps_hists <- Array.map (register_op_hist cluster) op_labels;
  ps.ps_hists

let stats_of_ps cluster ps =
  match ps.ps_stats with
  | Some s -> s
  | None ->
      (* Histograms register first, as the old stats_of_cluster did. *)
      ignore (hists_of cluster ps);
      let m = Cluster.metrics cluster in
      let s =
        {
          moves = Metrics.counter m ~unit_:"ops" "protocol.moves";
          bumps = Metrics.counter m ~unit_:"ops" "protocol.color_bumps";
          fetches = Metrics.counter m ~unit_:"ops" "protocol.fetches";
        }
      in
      ps.ps_stats <- Some s;
      s

let stats_of ctx = stats_of_ps (Ctx.cluster ctx) (pstate_of ctx)

(* Close one measured operation: classify the outcome, observe the
   latency, restore the context's saved measurement state.  Inlined into
   [measure_op] so that [p0] stays an unboxed float; the pending compute
   is [Params.cycles_to_seconds], repeated here for the same reason. *)
let[@inline] finish_op ctx hists ~default ~saved_kind ~saved_span ~sp ~t0 ~p0 =
  let kind = if ctx.Ctx.op_kind < 0 then default else ctx.Ctx.op_kind in
  let t1 = Drust_sim.Engine.now (Ctx.engine ctx) in
  let pending =
    (ctx.Ctx.cpu.Ctx.pending_cycles -. p0)
    /. ((Ctx.params ctx).Params.ghz *. 1e9)
  in
  let lat = t1 -. t0 +. pending in
  Metrics.observe (Array.unsafe_get hists kind) lat;
  Span.finish (Cluster.spans (Ctx.cluster ctx)) sp;
  ctx.Ctx.current_span <- saved_span;
  ctx.Ctx.op_kind <- saved_kind

(* Wrap one protocol-level operation: always observe its end-to-end
   latency (elapsed virtual time plus compute charged but not yet
   flushed — both pure reads of existing state, so measurement never
   perturbs the run), and, when tracing is enabled, open a root span the
   operation's fabric verbs and core waits parent under.  [ctx.op_kind]
   starts unset (-1) and the branch that decides the outcome overwrites
   it; [default] covers operations with a single outcome.  The operation
   is a toplevel function applied here to [ctx], [a] and [b], not a
   closure over them, so measuring allocates nothing. *)
let measure_op ctx ~default f a b =
  let cluster = Ctx.cluster ctx in
  let hists = hists_of cluster (pstate_of ctx) in
  let saved_kind = ctx.Ctx.op_kind in
  ctx.Ctx.op_kind <- -1;
  let t0 = Drust_sim.Engine.now (Ctx.engine ctx) in
  let p0 = ctx.Ctx.cpu.Ctx.pending_cycles in
  let spans = Cluster.spans cluster in
  let saved_span = ctx.Ctx.current_span in
  let sp =
    if Span.is_enabled spans then begin
      let sp =
        Span.start spans ~track:ctx.Ctx.node ?parent:saved_span
          ~category:"protocol" Flight.kind_names.(default)
      in
      ctx.Ctx.current_span <- Some sp;
      sp
    end
    else Span.null
  in
  match f ctx a b with
  | v ->
      finish_op ctx hists ~default ~saved_kind ~saved_span ~sp ~t0 ~p0;
      v
  | exception e ->
      finish_op ctx hists ~default ~saved_kind ~saved_span ~sp ~t0 ~p0;
      raise e

let tag ctx kind = ctx.Ctx.op_kind <- kind

(* Weak variant: only classifies when no stronger branch did already
   (e.g. a pinned read-through inside an op the claim already tagged). *)
let tag_weak ctx kind = if ctx.Ctx.op_kind < 0 then ctx.Ctx.op_kind <- kind

(* Instant span mark on the acting node's timeline; argument lists are
   only built when tracing is live. *)
let proto_mark ctx name ~bytes =
  let sp = Cluster.spans (Ctx.cluster ctx) in
  if Span.is_enabled sp then
    Span.instant sp ~track:ctx.Ctx.node ~category:"protocol"
      ~args:[ ("bytes", string_of_int bytes) ]
      name

(* Registry of live owners, per cluster — powers the executable audit of
   the paper's Appendix C invariants. *)
let register_owner ctx o =
  let ps = pstate_of ctx in
  ps.ps_registry <- o :: ps.ps_registry

let prune_registry cluster =
  let ps = pstate_of_cluster cluster in
  ps.ps_registry <- List.filter (fun o -> o.valid) ps.ps_registry

let moves ctx = Metrics.value (stats_of ctx).moves
let color_bumps ctx = Metrics.value (stats_of ctx).bumps
let fetches ctx = Metrics.value (stats_of ctx).fetches

(* Listeners installed by the fault-tolerance layer. *)
let set_commit_listener cluster f = (pstate_of_cluster cluster).ps_commit <- f
let set_transfer_listener cluster f =
  (pstate_of_cluster cluster).ps_transfer <- f

let notify_commit ctx g size =
  match (pstate_of ctx).ps_commit with
  | None -> ()
  | Some f ->
      let cluster = Ctx.cluster ctx in
      if Cluster.heap_mem cluster g then
        f ctx (Gaddr.clear_color g) size
          (Cluster.heap_read cluster g).Drust_memory.Partition.value

let notify_transfer ctx g =
  match (pstate_of ctx).ps_transfer with
  | None -> ()
  | Some f -> f ctx (Gaddr.clear_color g)

(* ------------------------------------------------------------------ *)
(* The observation tap (Cluster.tap): one event per protocol transition,
   emitted synchronously at the state change.  Call sites match on
   [Ctx.tap] and build their event only under [Some] — a closure handed
   to a wrapper would be allocated on every transition, subscriber or
   not.  Read events fire at the instant the access path is decided,
   write events right after the new address is published, so the
   address an event carries and a subscriber's shadow state can never be
   separated by a scheduler yield. *)

let note_app ctx ~g ~verb ~tag =
  match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (App { g; verb; tag })

(* ------------------------------------------------------------------ *)
(* Ablation switches (declared on [pstate] above). *)

let options_of_cluster cluster = (pstate_of_cluster cluster).ps_options
let options_of ctx = (pstate_of ctx).ps_options

let set_always_move cluster v = (options_of_cluster cluster).always_move <- v
let set_no_ubit cluster v = (options_of_cluster cluster).no_ubit <- v

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let serving ctx g = Cluster.serving_node (Ctx.cluster ctx) (Gaddr.node_of g)

let is_local ctx g = serving ctx g = ctx.Ctx.node

(* ------------------------------------------------------------------ *)
(* Op outcomes: every outcome sets the op tag, lands in the cluster's
   always-on black box under the same code, and goes to the tap — one
   helper call per outcome family, at the branch that decides it.
   Flight recording is pure array stores into preallocated rings — no
   engine or RNG access, no allocation — so instrumented runs stay
   bit-identical (docs/FORENSICS.md).

   Field layout per kind (must match [Flight.pp_event]):
     reads           a=physical addr  b=serving node   c=color
     write_inplace   a=physical addr                   c=color  d=home
     write_bump/move a=phys after     b=phys before    c=color  d=home
     transfer        a=physical addr  b=destination node
     drop            a=physical addr  b=serving node
     create          a=physical addr  b=home node      c=color  d=size *)

let[@inline] fr ctx ~kind ~g ~b ~d =
  Flight.record
    (Cluster.flight (Ctx.cluster ctx))
    ~node:ctx.Ctx.node
    ~time:(Drust_sim.Engine.now (Ctx.engine ctx))
    ~kind
    ~a:(Gaddr.to_int (Gaddr.clear_color g))
    ~b ~c:(Gaddr.color_of g) ~d

let[@inline] fr_read ctx ~kind ~g = fr ctx ~kind ~g ~b:(serving ctx g) ~d:0

(* A read served here, from the local heap ([Flight.k_read_local]) or from a
   cache copy fetched under [key] ([Flight.k_read_cached]).  A fetch's outcome
   is recorded by [fetch_into_cache]. *)
let read_outcome ctx kind g ~key =
  tag ctx kind;
  fr_read ctx ~kind ~g;
  match Ctx.tap ctx with
  | None -> ()
  | Some f ->
      let path =
        if kind = Flight.k_read_local then Tap.Path_local else Path_cache key
      in
      Ctx.emit ctx f (Read { g; path })

(* A write epoch closed with the colored address [after]: the same
   address (U-bit elision), a color bump in place, or a relocation.
   Bump/move flight events carry the old physical address in [b] so the
   object slice follows relocations. *)
let write_outcome ctx ~before ~after ~size =
  let phys_before = Gaddr.to_int (Gaddr.clear_color before) in
  let kind =
    if Gaddr.equal before after then Flight.k_write_inplace
    else if phys_before = Gaddr.to_int (Gaddr.clear_color after) then
      Flight.k_write_bump
    else Flight.k_write_move
  in
  tag ctx kind;
  fr ctx ~kind ~g:after
    ~b:(if kind = Flight.k_write_inplace then 0 else phys_before)
    ~d:(Gaddr.node_of after);
  match Ctx.tap ctx with
  | None -> ()
  | Some f ->
      let kind : Tap.write_kind =
        if kind = Flight.k_write_inplace then W_in_place
        else if kind = Flight.k_write_bump then W_bump
        else W_move
      in
      Ctx.emit ctx f (Write { before; after; size; kind })

(* An affinity child relocated along with its parent: a tap event only,
   the op outcome is the parent's. *)
let child_moved ctx ~before ~after ~size =
  match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Write { before; after; size; kind = W_move })

let check_cycles ctx = (Ctx.params ctx).Params.runtime_check_cycles
let local_cycles ctx = (Ctx.params ctx).Params.local_deref_cycles
let cache_cycles ctx = (Ctx.params ctx).Params.cache_hit_cycles

let charge_local_deref ctx =
  Ctx.charge_cycles ctx (check_cycles ctx +. local_cycles ctx)

let charge_cache_hit ctx =
  Ctx.charge_cycles ctx (check_cycles ctx +. cache_cycles ctx)

let cache_of ctx = (Ctx.current_node ctx).Cluster.cache

let assert_valid o context =
  if not o.valid then
    raise
      (Borrow_state.Violation
         { kind = Borrow_state.Use_after_death; state = Borrow_state.Dead; context })

let assert_live live context =
  if not live then
    raise
      (Borrow_state.Violation
         { kind = Borrow_state.Use_after_death; state = Borrow_state.Dead; context })

(* Transitive affinity group rooted at [o], including [o] itself. *)
let rec group o = o :: List.concat_map group o.children

(* Total bytes of [group o], summed without building the list. *)
let rec group_size o =
  List.fold_left (fun acc child -> acc + group_size child) o.size o.children

(* Cluster-wide invalidation of cached copies for a physical address that
   is being deallocated or moved away (App. B.4).  In the real system this
   is asynchronous and the allocator defers reuse of the address until the
   invalidations are acknowledged; here the invalidation is state-only
   (the paper batches these off the critical path, so no blocking cost is
   charged) and runs before the address is freed, which models exactly
   that reuse barrier. *)
let invalidate_all_caches cluster g =
  Array.iter
    (fun n -> Cache.invalidate_physical n.Cluster.cache g)
    (Cluster.nodes cluster)

(* Request the old home to deallocate a moved object: a small async
   message off the critical path (Alg. 1 step 3).  Caches are invalidated
   before the address becomes reusable. *)
let async_dealloc ctx g =
  let cluster = Ctx.cluster ctx in
  let target = serving ctx g in
  Fabric.send_async ?parent:ctx.Ctx.current_span (Ctx.fabric ctx)
    ~from:ctx.Ctx.node ~target ~bytes:16
    (fun () ->
      invalidate_all_caches cluster g;
      if Cluster.heap_mem cluster g then Cluster.heap_free cluster g)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

let alloc_cycles = 90.0

(* Under memory pressure the allocator first reclaims unreferenced cache
   copies (the lazy eviction of S4.2.1); only if the partition is still
   tight does it fall back to the most vacant server. *)
let pick_alloc_node ctx ~size =
  let cluster = Ctx.cluster ctx in
  let node = Cluster.node cluster ctx.Ctx.node in
  let part = node.Cluster.partition in
  (* Cached copies live in the regular heap partition (S4.2.1), so they
     count against its capacity. *)
  let headroom () =
    Partition.used_bytes part + Cache.used_bytes node.Cluster.cache + size
    < Float.to_int (0.95 *. Float.of_int (Partition.capacity_bytes part))
  in
  if headroom () then ctx.Ctx.node
  else begin
    let reclaimed = Cache.evict_unreferenced node.Cluster.cache in
    Ctx.charge_cycles ctx (300.0 +. (0.02 *. Float.of_int reclaimed));
    if headroom () then ctx.Ctx.node
    else begin
      (* Ask the global controller (launch node) for the most vacant
         server (S4.2.1). *)
      if ctx.Ctx.node <> 0 then begin
        Ctx.flush ctx;
        Fabric.rpc ?parent:ctx.Ctx.current_span (Ctx.fabric ctx)
          ~from:ctx.Ctx.node ~target:0 ~req_bytes:32 ~resp_bytes:16
          (fun () -> ())
      end;
      Cluster.most_vacant_node cluster
    end
  end

let create_on ctx ~node ~size v =
  Ctx.charge_cycles ctx alloc_cycles;
  let cluster = Ctx.cluster ctx in
  if node <> ctx.Ctx.node then
    (* Remote allocation: the request is forwarded to the target server
       through the communication layer (§4.2.1). *)
    Ctx.flush ctx;
  let g =
    if node <> ctx.Ctx.node then
      Fabric.rpc ?parent:ctx.Ctx.current_span (Ctx.fabric ctx)
        ~from:ctx.Ctx.node ~target:node ~req_bytes:32 ~resp_bytes:16
        (fun () -> Cluster.heap_alloc cluster ~node ~size v)
    else begin
      Ctx.note_local_alloc ctx ~bytes:size;
      Cluster.heap_alloc cluster ~node ~size v
    end
  in
  let o =
    {
      g;
      size;
      borrow = Borrow_state.create ();
      box_node = ctx.Ctx.node;
      local_copy = None;
      ubit = false;
      valid = true;
      children = [];
      tied = false;
      pinned = false;
    }
  in
  register_owner ctx o;
  (match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Create { g; size }));
  fr ctx ~kind:Flight.k_create ~g ~b:(Gaddr.node_of g) ~d:size;
  o

let create ctx ~size v = create_on ctx ~node:(pick_alloc_node ctx ~size) ~size v

let gaddr o = o.g
let size o = o.size
let color o = Gaddr.color_of o.g

(* ------------------------------------------------------------------ *)
(* Shared fetch path: read a remote object (and its affinity group)    *)
(* into the local cache under its colored address.                     *)

(* The fetch outcome is decided on entry (tag and flight event); its tap
   event waits for the copy to be in the cache. *)
let fetch_into_cache ctx ~g ~size ~group_bytes ~children =
  let cluster = Ctx.cluster ctx in
  tag ctx Flight.k_read_fetch;
  fr_read ctx ~kind:Flight.k_read_fetch ~g;
  Metrics.incr (stats_of ctx).fetches;
  proto_mark ctx "FETCH" ~bytes:group_bytes;
  let target = serving ctx g in
  Ctx.note_remote_access ctx ~target;
  Ctx.flush ctx;
  Fabric.rdma_read ?parent:ctx.Ctx.current_span (Ctx.fabric ctx)
    ~from:ctx.Ctx.node ~target ~bytes:group_bytes;
  let entry = Cluster.heap_read cluster g in
  let copy = Cache.insert (cache_of ctx) g ~size entry.Partition.value in
  (* The batched verb carried the children too: seed the local cache so
     their dereferences are local (the TBox guarantee, §4.1.3). *)
  List.iter
    (fun child ->
      List.iter
        (fun member ->
          if Cluster.heap_mem cluster member.g then begin
            let e = Cluster.heap_read cluster member.g in
            let c =
              Cache.insert (cache_of ctx) member.g ~size:member.size
                e.Partition.value
            in
            (* Nobody pins the prefetched copy yet. *)
            Cache.release (cache_of ctx) c
          end)
        (group child))
    children;
  (match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Read { g; path = Path_fetch }));
  copy

(* ------------------------------------------------------------------ *)
(* Immutable borrows (Alg. 4)                                          *)

let borrow_imm ctx o =
  assert_valid o "Protocol.borrow_imm";
  Borrow_state.borrow_imm o.borrow ~context:"Protocol.borrow_imm";
  (* Creating an immutable reference resets the owner's U bit so the next
     write epoch is guaranteed to change the colored address (App. B.4). *)
  o.ubit <- false;
  (match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Borrow_imm { g = o.g }));
  Ctx.charge_cycles ctx 12.0;
  {
    i_g = o.g;
    i_size = o.size;
    i_group = group_size o;
    i_borrow = o.borrow;
    i_children = o.children;
    i_copy = None;
    i_live = true;
  }

let clone_imm ctx r =
  assert_live r.i_live "Protocol.clone_imm";
  Borrow_state.borrow_imm r.i_borrow ~context:"Protocol.clone_imm";
  (match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Borrow_imm { g = r.i_g }));
  Ctx.charge_cycles ctx 12.0;
  (* Only the global-address field is duplicated; the local-copy field of
     the clone starts null (App. D.2). *)
  { r with i_copy = None }

let imm_deref_inner ctx r () =
  assert_live r.i_live "Protocol.imm_deref";
  let cluster = Ctx.cluster ctx in
  if is_local ctx r.i_g then begin
    read_outcome ctx Flight.k_read_local r.i_g ~key:r.i_g;
    charge_local_deref ctx;
    (Cluster.heap_read cluster r.i_g).Partition.value
  end
  else begin
    match r.i_copy with
    | Some copy when Gaddr.equal copy.Cache.key r.i_g && not copy.Cache.dead ->
        read_outcome ctx Flight.k_read_cached r.i_g ~key:copy.Cache.key;
        charge_cache_hit ctx;
        copy.Cache.value
    | _ -> (
        let cache = cache_of ctx in
        charge_cache_hit ctx;
        match Cache.find cache r.i_g with
        | copy ->
            read_outcome ctx Flight.k_read_cached r.i_g ~key:copy.Cache.key;
            Cache.retain copy;
            r.i_copy <- Some copy;
            copy.Cache.value
        | exception Not_found ->
            let copy =
              fetch_into_cache ctx ~g:r.i_g ~size:r.i_size
                ~group_bytes:r.i_group ~children:r.i_children
            in
            r.i_copy <- Some copy;
            copy.Cache.value)
  end

let imm_deref ctx r =
  measure_op ctx ~default:Flight.k_read_local imm_deref_inner r ()

let drop_imm ctx r =
  assert_live r.i_live "Protocol.drop_imm";
  r.i_live <- false;
  (match r.i_copy with
  | Some copy -> Cache.release (cache_of ctx) copy
  | None -> ());
  r.i_copy <- None;
  Ctx.charge_cycles ctx 10.0;
  Borrow_state.return_imm r.i_borrow ~context:"Protocol.drop_imm";
  match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Return_imm { g = r.i_g })

(* ------------------------------------------------------------------ *)
(* Move machinery                                                      *)

(* Relocate affinity-group [members] next to the object's new local
   home. *)
let relocate_children ctx members =
  let cluster = Ctx.cluster ctx in
  List.iter
    (fun member ->
      if Cluster.heap_mem cluster member.g then begin
        let e = Cluster.heap_read cluster member.g in
        let child_fresh =
          Cluster.heap_alloc cluster ~node:ctx.Ctx.node ~size:member.size
            e.Partition.value
        in
        async_dealloc ctx member.g;
        let old = member.g in
        member.g <- child_fresh;
        member.ubit <- false;
        child_moved ctx ~before:old ~after:child_fresh ~size:member.size
      end)
    members

(* Move the object at [g] (size [size]) into the local partition,
   returning the new color-0 address.  Children of an affinity group move
   along in the same batched verb. *)
let move_local ctx ~g ~size ~children =
  let cluster = Ctx.cluster ctx in
  Metrics.incr (stats_of ctx).moves;
  let group_members = List.concat_map group children in
  let batch = size + List.fold_left (fun a m -> a + m.size) 0 group_members in
  proto_mark ctx "MOVE" ~bytes:batch;
  let target = serving ctx g in
  Ctx.note_remote_access ctx ~target;
  Ctx.flush ctx;
  if target <> ctx.Ctx.node then
    Fabric.rdma_read ?parent:ctx.Ctx.current_span (Ctx.fabric ctx)
      ~from:ctx.Ctx.node ~target ~bytes:batch;
  let entry = Cluster.heap_read cluster g in
  let fresh =
    Cluster.heap_alloc cluster ~node:ctx.Ctx.node ~size entry.Partition.value
  in
  Ctx.note_local_alloc ctx ~bytes:size;
  async_dealloc ctx g;
  relocate_children ctx group_members;
  fresh

(* Bump the color of a locally-written object; on overflow (or under the
   always-move ablation), move it to a fresh local address with color 0
   (the move-on-overflow strategy). *)
let bump_or_move ctx ~g ~size =
  let s = stats_of ctx in
  let forced_move =
    if (options_of ctx).always_move then Some (Gaddr.Color_overflow g) else None
  in
  match
    match forced_move with Some e -> raise e | None -> Gaddr.bump_color g
  with
  | g' ->
      Metrics.incr s.bumps;
      proto_mark ctx "BUMP" ~bytes:size;
      g'
  | exception Gaddr.Color_overflow _ ->
      let cluster = Ctx.cluster ctx in
      Metrics.incr s.moves;
      proto_mark ctx "MOVE(overflow)" ~bytes:size;
      let entry = Cluster.heap_read cluster g in
      let fresh =
        Cluster.heap_alloc cluster ~node:ctx.Ctx.node ~size entry.Partition.value
      in
      invalidate_all_caches cluster g;
      Cluster.heap_free cluster g;
      (* Allocation bookkeeping plus the local memcpy of the object. *)
      Ctx.charge_cycles ctx (200.0 +. (0.3 *. Float.of_int size));
      fresh

(* ------------------------------------------------------------------ *)
(* Mutable borrows (Alg. 1/6)                                          *)

let borrow_mut ctx o =
  assert_valid o "Protocol.borrow_mut";
  Borrow_state.borrow_mut o.borrow ~context:"Protocol.borrow_mut";
  (* The owner's cached-copy field cannot stay valid across a write epoch:
     the object is about to change address or color, and the copy's slot
     could even be recycled for a different object after the move.  Unpin
     it now — the owner cannot read while the mutable borrow is live. *)
  (match o.local_copy with
  | Some copy -> Cache.release (cache_of ctx) copy
  | None -> ());
  o.local_copy <- None;
  (match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Borrow_mut { g = o.g }));
  Ctx.charge_cycles ctx 12.0;
  { m_g = o.g; m_size = o.size; m_owner = o; m_ubit = false; m_live = true }

(* A pinned object's new color: it cannot move, so on overflow the color
   wraps to 0 instead (App. D.1). *)
let pinned_color_bump ctx ~size g =
  Metrics.incr (stats_of ctx).bumps;
  proto_mark ctx "BUMP" ~bytes:size;
  try Gaddr.bump_color g with Gaddr.Color_overflow g -> Gaddr.clear_color g

(* DerefMut (Alg. 6): claim exclusive local access, updating color or
   moving as needed.  Returns unit; the caller then reads/writes the heap
   slot directly. *)
let mut_claim ctx m ~for_write =
  let o = m.m_owner in
  let before = m.m_g in
  (if is_local ctx m.m_g then begin
     if not for_write then begin
       tag ctx Flight.k_read_local;
       fr_read ctx ~kind:Flight.k_read_local ~g:m.m_g
     end;
     charge_local_deref ctx;
     if for_write && ((not m.m_ubit) || (options_of ctx).no_ubit) then begin
       (* Pinned objects keep their address; the color still changes via
          the owner struct on drop (App. D.1). *)
       m.m_ubit <- true;
       m.m_g <- bump_or_move ctx ~g:m.m_g ~size:m.m_size
     end
   end
   else if o.pinned then begin
     (* Copy-and-write-back path (App. D.1): the object cannot move, so
        mutable access works on a local scratch copy; every write is
        written through to the pinned home synchronously. *)
     charge_local_deref ctx;
     if for_write && ((not m.m_ubit) || (options_of ctx).no_ubit) then begin
       m.m_ubit <- true;
       m.m_g <- pinned_color_bump ctx ~size:m.m_size m.m_g
     end
   end
   else begin
     m.m_ubit <- true;
     let fresh = move_local ctx ~g:m.m_g ~size:m.m_size ~children:o.children in
     m.m_g <- fresh
   end);
  (* A write claim always announces its epoch (even U-bit-elided ones, so
     a checker can prove no live copy is reachable under the unchanged
     colored address); a read claim only reports relocations. *)
  if for_write || not (Gaddr.equal before m.m_g) then
    write_outcome ctx ~before ~after:m.m_g ~size:m.m_size

let heap_slot_read ctx m =
  let cluster = Ctx.cluster ctx in
  if is_local ctx m.m_g then (Cluster.heap_read cluster m.m_g).Partition.value
  else begin
    (* Pinned remote object: read through (one-sided READ). *)
    tag_weak ctx Flight.k_read_remote;
    fr_read ctx ~kind:Flight.k_read_remote ~g:m.m_g;
    let target = serving ctx m.m_g in
    Ctx.flush ctx;
    Fabric.rdma_read ?parent:ctx.Ctx.current_span (Ctx.fabric ctx)
      ~from:ctx.Ctx.node ~target ~bytes:m.m_size;
    (Cluster.heap_read cluster m.m_g).Partition.value
  end

let heap_slot_write ctx m v =
  let cluster = Ctx.cluster ctx in
  if is_local ctx m.m_g then Cluster.heap_write cluster m.m_g v
  else begin
    let target = serving ctx m.m_g in
    Ctx.flush ctx;
    Fabric.rdma_write ?parent:ctx.Ctx.current_span (Ctx.fabric ctx)
      ~from:ctx.Ctx.node ~target ~bytes:m.m_size;
    Cluster.heap_write cluster m.m_g v
  end

let mut_read_inner ctx m () =
  assert_live m.m_live "Protocol.mut_read";
  mut_claim ctx m ~for_write:false;
  heap_slot_read ctx m

let mut_read ctx m =
  measure_op ctx ~default:Flight.k_read_local mut_read_inner m ()

let mut_write_inner ctx m v =
  assert_live m.m_live "Protocol.mut_write";
  mut_claim ctx m ~for_write:true;
  heap_slot_write ctx m v

let mut_write ctx m v =
  measure_op ctx ~default:Flight.k_write_inplace mut_write_inner m v

let mut_modify_inner ctx m f =
  assert_live m.m_live "Protocol.mut_modify";
  mut_claim ctx m ~for_write:true;
  let v = heap_slot_read ctx m in
  heap_slot_write ctx m (f v)

let mut_modify ctx m f =
  measure_op ctx ~default:Flight.k_write_inplace mut_modify_inner m f

let drop_mut ctx m =
  assert_live m.m_live "Protocol.drop_mut";
  m.m_live <- false;
  let o = m.m_owner in
  (* Synchronously write the colored global address back into the owner
     box (Alg. 6 DropMutRef); 8-byte one-sided WRITE when the box lives on
     another server. *)
  if o.box_node <> ctx.Ctx.node then begin
    Ctx.flush ctx;
    Fabric.rdma_write ?parent:ctx.Ctx.current_span (Ctx.fabric ctx)
      ~from:ctx.Ctx.node ~target:o.box_node ~bytes:8
  end
  else Ctx.charge_cycles ctx 8.0;
  o.g <- m.m_g;
  o.ubit <- o.ubit || m.m_ubit;
  Borrow_state.return_mut o.borrow ~context:"Protocol.drop_mut";
  (match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Return_mut { g = m.m_g }));
  if m.m_ubit then notify_commit ctx m.m_g m.m_size

(* ------------------------------------------------------------------ *)
(* Owner access without borrow (Alg. 7/8): a direct access behaves as a
   borrow-and-return pair.                                             *)

let owner_read_inner ctx o () =
  assert_valid o "Protocol.owner_read";
  Borrow_state.assert_owner_readable o.borrow ~context:"Protocol.owner_read";
  let cluster = Ctx.cluster ctx in
  if is_local ctx o.g then begin
    read_outcome ctx Flight.k_read_local o.g ~key:o.g;
    charge_local_deref ctx;
    (Cluster.heap_read cluster o.g).Partition.value
  end
  else begin
    (* A remote read of a pinned object observes the current write epoch:
       reset the U bit so the next write-through is forced to bump the
       color.  Without this, an in-place write-through would leave the
       copy this read produces reachable under a still-current colored
       address — a lost-update visible to every later read (App. D.1). *)
    if o.pinned then o.ubit <- false;
    match o.local_copy with
    | Some copy when Gaddr.equal copy.Cache.key o.g && not copy.Cache.dead ->
        read_outcome ctx Flight.k_read_cached o.g ~key:copy.Cache.key;
        charge_cache_hit ctx;
        copy.Cache.value
    | stale -> (
        (* Release a copy cached under an outdated color. *)
        (match stale with
        | Some old -> Cache.release (cache_of ctx) old
        | None -> ());
        o.local_copy <- None;
        let cache = cache_of ctx in
        charge_cache_hit ctx;
        match Cache.find cache o.g with
        | copy ->
            read_outcome ctx Flight.k_read_cached o.g ~key:copy.Cache.key;
            Cache.retain copy;
            o.local_copy <- Some copy;
            copy.Cache.value
        | exception Not_found ->
            let copy =
              fetch_into_cache ctx ~g:o.g ~size:o.size
                ~group_bytes:(group_size o) ~children:o.children
            in
            o.local_copy <- Some copy;
            copy.Cache.value)
  end

let owner_read ctx o =
  measure_op ctx ~default:Flight.k_read_local owner_read_inner o ()

let owner_claim_mut ctx o =
  let cluster = Ctx.cluster ctx in
  if is_local ctx o.g then begin
    charge_local_deref ctx;
    if (not o.ubit) || (options_of ctx).no_ubit then begin
      o.ubit <- true;
      o.g <- bump_or_move ctx ~g:o.g ~size:o.size
    end
  end
  else if o.pinned then charge_local_deref ctx
  else begin
    (* Alg. 8 remote path: reuse a local cached copy as the new home when
       one exists, otherwise move the object over the wire. *)
    (match o.local_copy with
    | Some copy when Gaddr.equal copy.Cache.key o.g && not copy.Cache.dead ->
        let fresh =
          Cluster.heap_alloc cluster ~node:ctx.Ctx.node ~size:o.size
            copy.Cache.value
        in
        Cache.release (cache_of ctx) copy;
        o.local_copy <- None;
        async_dealloc ctx o.g;
        (* Affinity children still need to come over. *)
        relocate_children ctx (List.concat_map group o.children);
        Metrics.incr (stats_of ctx).moves;
        proto_mark ctx "MOVE(reuse-copy)" ~bytes:o.size;
        o.g <- fresh
    | stale ->
        (match stale with
        | Some old -> Cache.release (cache_of ctx) old
        | None -> ());
        o.local_copy <- None;
        o.g <- move_local ctx ~g:o.g ~size:o.size ~children:o.children);
    o.ubit <- true
  end

(* Close a pinned write-through epoch: publish a fresh color on the owner
   box so every copy fetched under the old color becomes unreachable
   (App. D.1).  This runs {e after} the written value has landed at the
   pinned home — publishing the color first would open a window where a
   concurrent fetch caches the pre-write value under the new, still-
   current color, a permanently reachable stale copy. *)
let pinned_epoch_bump ctx o =
  if (not o.ubit) || (options_of ctx).no_ubit then begin
    o.ubit <- true;
    o.g <- pinned_color_bump ctx ~size:o.size o.g
  end

let owner_write_inner ctx o v =
  assert_valid o "Protocol.owner_write";
  Borrow_state.assert_owner_usable o.borrow ~context:"Protocol.owner_write";
  let before = o.g in
  owner_claim_mut ctx o;
  if is_local ctx o.g then Cluster.heap_write (Ctx.cluster ctx) o.g v
  else begin
    (* Pinned remote object: write through, then close the epoch. *)
    let target = serving ctx o.g in
    Ctx.flush ctx;
    Fabric.rdma_write ?parent:ctx.Ctx.current_span (Ctx.fabric ctx)
      ~from:ctx.Ctx.node ~target ~bytes:o.size;
    Cluster.heap_write (Ctx.cluster ctx) o.g v;
    pinned_epoch_bump ctx o
  end;
  write_outcome ctx ~before ~after:o.g ~size:o.size;
  notify_commit ctx o.g o.size

let owner_write ctx o v =
  measure_op ctx ~default:Flight.k_write_inplace owner_write_inner o v

let owner_modify_inner ctx o f =
  assert_valid o "Protocol.owner_modify";
  Borrow_state.assert_owner_usable o.borrow ~context:"Protocol.owner_modify";
  let before = o.g in
  owner_claim_mut ctx o;
  let cluster = Ctx.cluster ctx in
  if is_local ctx o.g then
    Cluster.heap_write cluster o.g
      (f (Cluster.heap_read cluster o.g).Partition.value)
  else begin
    let target = serving ctx o.g in
    Ctx.flush ctx;
    Fabric.rdma_read ?parent:ctx.Ctx.current_span (Ctx.fabric ctx)
      ~from:ctx.Ctx.node ~target ~bytes:o.size;
    let v = f (Cluster.heap_read cluster o.g).Partition.value in
    Fabric.rdma_write ?parent:ctx.Ctx.current_span (Ctx.fabric ctx)
      ~from:ctx.Ctx.node ~target ~bytes:o.size;
    Cluster.heap_write cluster o.g v;
    pinned_epoch_bump ctx o
  end;
  write_outcome ctx ~before ~after:o.g ~size:o.size;
  notify_commit ctx o.g o.size

let owner_modify ctx o f =
  measure_op ctx ~default:Flight.k_write_inplace owner_modify_inner o f

(* ------------------------------------------------------------------ *)
(* Ownership transfer, deallocation                                    *)

let transfer_inner ctx o to_node =
  assert_valid o "Protocol.transfer";
  Borrow_state.transfer o.borrow ~context:"Protocol.transfer";
  (* Evict this node's cached copy to avoid cache leakage (§4.1.1,
     App. D.2), then re-home the box.  Only the pointer ships; the heap
     object stays where it is. *)
  (match o.local_copy with
  | Some copy ->
      Cache.release (cache_of ctx) copy;
      Cache.invalidate_physical (cache_of ctx) copy.Cache.key
  | None -> ());
  o.local_copy <- None;
  o.box_node <- to_node;
  List.iter (fun child -> child.box_node <- to_node) (List.concat_map group o.children);
  Ctx.charge_cycles ctx 20.0;
  (match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Transfer { g = o.g; to_node }));
  fr ctx ~kind:Flight.k_transfer ~g:o.g ~b:to_node ~d:0;
  notify_transfer ctx o.g

let transfer ctx o ~to_node =
  measure_op ctx ~default:Flight.k_transfer transfer_inner o to_node

let rec drop_owner_inner ctx o () =
  assert_valid o "Protocol.drop_owner";
  Borrow_state.kill o.borrow ~context:"Protocol.drop_owner";
  o.valid <- false;
  (match Ctx.tap ctx with
  | None -> ()
  | Some f -> Ctx.emit ctx f (Drop { g = o.g }));
  fr ctx ~kind:Flight.k_drop ~g:o.g ~b:(serving ctx o.g) ~d:0;
  (match o.local_copy with
  | Some copy -> Cache.release (cache_of ctx) copy
  | None -> ());
  o.local_copy <- None;
  (* Drop every owned child first, then the object itself. *)
  List.iter
    (fun child -> if child.valid then drop_owner_inner ctx child ())
    o.children;
  o.children <- [];
  let cluster = Ctx.cluster ctx in
  let target = serving ctx o.g in
  if target = ctx.Ctx.node then begin
    Ctx.charge_cycles ctx 60.0;
    invalidate_all_caches cluster o.g;
    if Cluster.heap_mem cluster o.g then Cluster.heap_free cluster o.g
  end
  else async_dealloc ctx o.g

let drop_owner ctx o =
  measure_op ctx ~default:Flight.k_drop drop_owner_inner o ()

(* ------------------------------------------------------------------ *)
(* Affinity (TBox)                                                     *)

let rec reaches o target =
  ((o == target)
  [@dlint.allow
    "determinism: identity test on unique mutable object records — affinity \
     cycles are about this object, not a structural twin"])
  || List.exists (fun c -> reaches c target) o.children

let tie ctx ~parent ~child =
  assert_valid parent "Protocol.tie";
  assert_valid child "Protocol.tie";
  if child.tied then invalid_arg "Protocol.tie: child already tied";
  if reaches child parent then invalid_arg "Protocol.tie: affinity cycle";
  if child.pinned then invalid_arg "Protocol.tie: child is pinned";
  child.tied <- true;
  parent.children <- parent.children @ [ child ];
  (* Enforce co-location at tie time: bring the child next to the parent
     if they currently live on different servers. *)
  let cluster = Ctx.cluster ctx in
  let parent_home = serving ctx parent.g in
  if serving ctx child.g <> parent_home then begin
    let entry = Cluster.heap_read cluster child.g in
    let fresh =
      Cluster.heap_alloc cluster ~node:parent_home ~size:child.size
        entry.Partition.value
    in
    if serving ctx child.g <> ctx.Ctx.node || parent_home <> ctx.Ctx.node then begin
      Ctx.flush ctx;
      Fabric.rdma_write ?parent:ctx.Ctx.current_span (Ctx.fabric ctx)
        ~from:ctx.Ctx.node ~target:parent_home ~bytes:child.size
    end;
    async_dealloc ctx child.g;
    let old = child.g in
    child.g <- fresh;
    child_moved ctx ~before:old ~after:fresh ~size:child.size
  end

let is_pinned o = o.pinned

let pin ctx o =
  assert_valid o "Protocol.pin";
  if o.tied then invalid_arg "Protocol.pin: tied child cannot be pinned";
  o.pinned <- true;
  Ctx.charge_cycles ctx 10.0


(* ------------------------------------------------------------------ *)
(* Executable coherence audit (Appendix C).

   For every live owner, any cache entry reachable under the owner's
   CURRENT colored address must hold exactly the heap value — this is the
   Stale-Value-Elimination invariant: a copy cached under an old colored
   address can never be returned, and one cached under the current
   address is by construction up to date.  Returns human-readable
   violation descriptions (empty = coherent). *)
let audit cluster =
  prune_registry cluster;
  let violations = ref [] in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun o ->
      if o.valid && not (Borrow_state.is_dead o.borrow) then begin
        if not (Cluster.heap_mem cluster o.g) then
          (* A mutable borrow may legitimately hold the object mid-move;
             only settled owners are audited. *)
          (if not (Borrow_state.is_mut_borrowed o.borrow) then
             note "owner %s points at a dead heap slot"
               (Format.asprintf "%a" Gaddr.pp o.g))
        else begin
          let heap_value = (Cluster.heap_read cluster o.g).Partition.value in
          Array.iter
            (fun n ->
              match Cache.peek n.Cluster.cache o.g with
              | Some copy ->
                  if
                    ((copy.Cache.value != heap_value)
                    [@dlint.allow
                      "determinism: staleness audit is exactly a physical \
                       identity check — a cached copy must alias the heap \
                       slot's value"])
                  then
                    note "node %d caches a stale value for %s" n.Cluster.id
                      (Format.asprintf "%a" Gaddr.pp o.g)
              | None -> ())
            (Cluster.nodes cluster)
        end
      end)
    (pstate_of_cluster cluster).ps_registry;
  List.rev !violations
