module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Engine = Drust_sim.Engine
module Resource = Drust_sim.Resource
module Fabric = Drust_net.Fabric
module Univ = Drust_util.Univ
module Intmap = Drust_util.Intmap
module Dsm = Drust_dsm.Dsm

(* Protocol software costs, calibrated so an uncached 512 B read costs
   ~16 us end to end with the wire accounting for ~3.6 us (the paper's
   S3 breakdown). *)
let dir_proc = 3.0e-6 (* home directory software time per request *)
let dir_per_block = 1.0e-6 (* pipelined extra per additional block *)
let requester_proc = 3.3e-6 (* requester-side protocol bookkeeping *)
let hit_check_cycles = 220.0 (* local state check on a cache hit *)
let inv_extra = 0.7e-6 (* extra per additional sharer invalidated *)

(* Directory state of one small-object cache block. *)
type block_state = Uncached | Shared of int list | Exclusive of int

(* A small-object block's directory entry: its coherence state and the
   number of live objects packed into it.  The entry goes with the
   block's last object, not its first: a free must not drop the state
   its live neighbours are cached under. *)
type block_entry = { mutable state : block_state; mutable live : int }

(* Large (block-aligned) objects skip the per-block hashtable: block
   coherence state is summarized by a per-node streaming cursor (blocks
   [0, cursor) are Shared at that node) plus the current exclusive
   holder.  Small objects share blocks with their neighbours (the bump
   allocator packs them), so they keep exact per-block state — that is
   where false sharing lives.  Both per-node arrays start empty and
   are allocated on the object's first fault or write: an empty array
   means "never touched", read as cursor 0 and not resident on every
   node, so an object nobody touches costs no per-node state. *)
type big_state = {
  mutable cursors : int array; (* per node: faulted-prefix length in blocks *)
  mutable excl : int option; (* current exclusive writer *)
  mutable resident : bool array; (* per node: counted against the cache budget *)
  bytes : int; (* the object's size, charged to a node's cache budget *)
}

type layout = Small of int list (* block ids *) | Big of big_state

type handle = {
  oid : int;
  obj_home : int;
  nblocks : int;
  size : int;
  layout : layout;
}


(* GAM's coherence block. *)
let block_size = 512

(* GAM caches remote data in a bounded per-node cache; once the budget is
   exceeded the LRU object is dropped and must be re-faulted.  This is
   what limits GAM on large cacheable working sets (GEMM). *)
let cache_budget = Drust_util.Units.mib 6

type t = {
  cluster : Cluster.t;
  directory : block_entry Intmap.t; (* block id -> entry *)
  dir_units : Resource.t array; (* per-node directory engines *)
  store : Univ.t Intmap.t; (* object id -> current value *)
  bump : int array; (* per-node allocation cursor in bytes *)
  mutable next_oid : int;
  mutable rmisses : int;
  mutable wmisses : int;
  mutable invs : int;
  cache_bytes : int array;
  lru : big_state Queue.t array; (* may hold stale *)
}

let create cluster =
  {
    cluster;
    directory = Intmap.create ~capacity:4096 ();
    dir_units =
      Array.init (Cluster.node_count cluster) (fun _ ->
          Resource.create (Cluster.engine cluster) ~capacity:4);
    store = Intmap.create ~capacity:4096 ();
    bump = Array.make (Cluster.node_count cluster) 0;
    next_oid = 0;
    rmisses = 0;
    wmisses = 0;
    invs = 0;
    cache_bytes = Array.make (Cluster.node_count cluster) 0;
    lru = Array.init (Cluster.node_count cluster) (fun _ -> Queue.create ());
  }

(* [node]'s cursor on [bs]: 0 until the object is first touched. *)
let cursor (bs : big_state) node =
  if Array.length bs.cursors = 0 then 0 else bs.cursors.(node)

(* [bs]'s cursors, allocated on the object's first fault or write. *)
let cursors t (bs : big_state) =
  if Array.length bs.cursors = 0 then
    bs.cursors <- Array.make (Cluster.node_count t.cluster) 0;
  bs.cursors

(* Register a faulted object in the node's bounded cache, evicting LRU
   residents (their cursors reset, forcing a re-fault) beyond budget.
   Every state in a node's queue has its arrays: it was faulted there. *)
let note_resident t ~node (bs : big_state) =
  if Array.length bs.resident = 0 then
    bs.resident <- Array.make (Cluster.node_count t.cluster) false;
  if not bs.resident.(node) then begin
    bs.resident.(node) <- true;
    t.cache_bytes.(node) <- t.cache_bytes.(node) + bs.bytes;
    Queue.push bs t.lru.(node)
  end;
  while
    t.cache_bytes.(node) > cache_budget && not (Queue.is_empty t.lru.(node))
  do
    let victim = Queue.pop t.lru.(node) in
    if
      victim.resident.(node)
      && ((victim != bs)
         [@dlint.allow
           "determinism: identity test on unique mutable cache records — \
            the object being inserted must not evict itself"])
    then begin
      victim.resident.(node) <- false;
      victim.cursors.(node) <- 0;
      t.cache_bytes.(node) <- t.cache_bytes.(node) - victim.bytes
    end
    else if
      ((victim == bs)
      [@dlint.allow
        "determinism: identity test on unique mutable cache records — \
         the object being inserted must not evict itself"])
    then Queue.push victim t.lru.(node)
  done

(* Block [b]'s directory entry, created Uncached with no live object
   when first needed. *)
let entry t b =
  match Intmap.find t.directory b with
  | e -> e
  | exception Not_found ->
      let e = { state = Uncached; live = 0 } in
      Intmap.set t.directory b e;
      e

(* Globally unique block ids: 2^34 bytes of virtual space per node. *)
let block_id ~node ~byte = (node lsl 34) lor (byte / block_size)

let alloc_on t ctx ~node ~size v =
  Ctx.charge_cycles ctx 150.0;
  let oid = t.next_oid in
  t.next_oid <- oid + 1;
  Intmap.set t.store oid v;
  if size >= block_size then begin
    (* Align large objects so their blocks are private to them. *)
    let aligned =
      (t.bump.(node) + block_size - 1) / block_size * block_size
    in
    t.bump.(node) <- aligned + size;
    let nblocks = (size + block_size - 1) / block_size in
    {
      oid;
      obj_home = node;
      nblocks;
      size;
      layout = Big { cursors = [||]; excl = None; resident = [||]; bytes = size };
    }
  end
  else begin
    let start = t.bump.(node) in
    t.bump.(node) <- start + max 1 size;
    let first = block_id ~node ~byte:start in
    let last = block_id ~node ~byte:(start + max 1 size - 1) in
    for b = first to last do
      let e = entry t b in
      e.live <- e.live + 1
    done;
    {
      oid;
      obj_home = node;
      nblocks = last - first + 1;
      size;
      layout = Small (List.init (last - first + 1) (fun i -> first + i));
    }
  end

let alloc t ctx ~size v = alloc_on t ctx ~node:ctx.Ctx.node ~size v

let home h = h.obj_home

let distinct (l : int list) = List.sort_uniq Int.compare l

(* The home directory's side of a round: hold one of its directory
   engines for the per-block processing, then downgrade or invalidate
   the third parties.  The engine is released on exception, without a
   bracketing closure. *)
let serve_directory t ~home ~nblocks ~third_parties ~third_bytes =
  let unit_ = t.dir_units.(home) in
  let engine = Cluster.engine t.cluster in
  Resource.acquire unit_;
  match
    Engine.delay engine
      (dir_proc +. (dir_per_block *. Float.of_int (max 0 (nblocks - 1))));
    match third_parties with
    | [] -> ()
    | first :: rest ->
        t.invs <- t.invs + 1 + List.length rest;
        Fabric.rpc (Cluster.fabric t.cluster) ~from:home ~target:first
          ~req_bytes:64 ~resp_bytes:third_bytes ignore;
        for _ = 1 to List.length rest do
          Engine.delay engine inv_extra
        done
  with
  | () -> Resource.release unit_
  | exception e ->
      Resource.release unit_;
      raise e

(* One home-directory round trip serving [nblocks] block requests and
   contacting [third_parties] (exclusive holders to downgrade, or sharers
   to invalidate). *)
let directory_round t ctx ~home ~resp_bytes ~nblocks ~third_parties ~third_bytes =
  Ctx.flush ctx;
  (* The home's side runs inline between the RPC's halves: no closure. *)
  let fabric = Cluster.fabric t.cluster and from = ctx.Ctx.node in
  let vs =
    Fabric.rpc_request fabric ~from ~target:home ~req_bytes:64 ~resp_bytes
  in
  (match serve_directory t ~home ~nblocks ~third_parties ~third_bytes with
  | () -> Fabric.rpc_reply fabric vs ~from ~target:home ~resp_bytes
  | exception e ->
      Fabric.rpc_abort fabric vs;
      raise e);
  (* Requester-side protocol bookkeeping (state tracking of the copies). *)
  Engine.delay (Cluster.engine t.cluster) requester_proc

(* ------------------------------------------------------------------ *)
(* Small objects: exact per-block directory protocol                    *)

let has_shared node = function
  | Shared nodes -> List.mem node nodes
  | Exclusive o -> o = node
  | Uncached -> false

let has_exclusive node = function
  | Exclusive o -> o = node
  | Shared _ | Uncached -> false

(* The block-list walks below are toplevel recursive functions over
   [t] and [node], not closures passed to [List] iterators: a closure
   capturing them would be allocated on every access, hit or miss.
   Filters keep the list order, and return [[]] without allocating when
   nothing passes — the common, warm case. *)

(* The blocks [node] holds neither Shared nor Exclusive. *)
let rec unshared t node = function
  | [] -> []
  | b :: rest ->
      if has_shared node (entry t b).state then unshared t node rest
      else b :: unshared t node rest

(* The blocks [node] does not hold Exclusive. *)
let rec unowned t node = function
  | [] -> []
  | b :: rest ->
      if has_exclusive node (entry t b).state then unowned t node rest
      else b :: unowned t node rest

(* No block is held Exclusive by a node other than [node]. *)
let rec none_foreign_exclusive t node = function
  | [] -> true
  | b :: rest -> (
      match (entry t b).state with
      | Exclusive o when o <> node -> false
      | Exclusive _ | Shared _ | Uncached -> none_foreign_exclusive t node rest)

(* The other nodes holding a block Exclusive, in block order. *)
let rec foreign_exclusives t node = function
  | [] -> []
  | b :: rest -> (
      match (entry t b).state with
      | Exclusive o when o <> node -> o :: foreign_exclusives t node rest
      | Exclusive _ | Shared _ | Uncached -> foreign_exclusives t node rest)

(* The other nodes holding a block in any state, in block order. *)
let rec foreign_holders t node = function
  | [] -> []
  | b :: rest -> (
      match (entry t b).state with
      | Uncached -> foreign_holders t node rest
      | Shared nodes ->
          List.filter (fun n -> n <> node) nodes @ foreign_holders t node rest
      | Exclusive o ->
          if o <> node then o :: foreign_holders t node rest
          else foreign_holders t node rest)

let rec add_sharer t node = function
  | [] -> ()
  | b :: rest ->
      let e = entry t b in
      let sharers =
        match e.state with
        | Uncached -> [ node ]
        | Shared nodes -> distinct (node :: nodes)
        | Exclusive o -> distinct [ node; o ]
      in
      e.state <- Shared sharers;
      add_sharer t node rest

let rec set_exclusive t excl = function
  | [] -> ()
  | b :: rest ->
      (entry t b).state <- excl;
      set_exclusive t excl rest

let small_read t ctx h blocks_ =
  let node = ctx.Ctx.node in
  match unshared t node blocks_ with
  | [] -> Ctx.charge_cycles ctx hit_check_cycles
  | missed ->
      (if h.obj_home = node && none_foreign_exclusive t node missed then
         (* Local fast path: the requester is the home, nothing conflicts. *)
         Ctx.charge_cycles ctx (hit_check_cycles +. 900.0)
       else begin
         t.rmisses <- t.rmisses + 1;
         Ctx.note_remote_access ctx ~target:h.obj_home;
         let owners = distinct (foreign_exclusives t node missed) in
         directory_round t ctx ~home:h.obj_home
           ~resp_bytes:(min h.size (List.length missed * block_size))
           ~nblocks:(List.length missed) ~third_parties:owners
           ~third_bytes:block_size
       end);
      add_sharer t node missed

let small_acquire t ctx h blocks_ =
  let node = ctx.Ctx.node in
  match unowned t node blocks_ with
  | [] -> Ctx.charge_cycles ctx hit_check_cycles
  | need ->
      let third_parties = distinct (foreign_holders t node need) in
      (if h.obj_home = node && third_parties = [] then
         Ctx.charge_cycles ctx (hit_check_cycles +. 900.0)
       else begin
         t.wmisses <- t.wmisses + 1;
         Ctx.note_remote_access ctx ~target:h.obj_home;
         let dirty_fetch = not (none_foreign_exclusive t node need) in
         directory_round t ctx ~home:h.obj_home
           ~resp_bytes:
             (if dirty_fetch then min h.size (List.length need * block_size)
              else 32)
           ~nblocks:(List.length need) ~third_parties ~third_bytes:32
       end);
      set_exclusive t (Exclusive node) need

(* ------------------------------------------------------------------ *)
(* Large objects: streaming-cursor summary                              *)

(* Fault [want] blocks starting at the node's cursor. *)
let big_fault t ctx h (bs : big_state) ~want =
  let node = ctx.Ctx.node in
  let cursor = cursor bs node in
  let served = min want (h.nblocks - cursor) in
  if served <= 0 then Ctx.charge_cycles ctx hit_check_cycles
  else begin
    let third =
      match bs.excl with
      | Some o when o <> node ->
          (* Downgrade the writer once; its dirty blocks flow back through
             the home. *)
          bs.excl <- None;
          [ o ]
      | Some _ | None -> []
    in
    (if h.obj_home = node && third = [] then
       Ctx.charge_cycles ctx (hit_check_cycles +. 900.0)
     else begin
       t.rmisses <- t.rmisses + 1;
       Ctx.note_remote_access ctx ~target:h.obj_home;
       directory_round t ctx ~home:h.obj_home
         ~resp_bytes:(served * block_size)
         ~nblocks:served ~third_parties:third
         ~third_bytes:(served * block_size)
     end);
    (cursors t bs).(node) <- cursor + served;
    if h.obj_home <> node then note_resident t ~node bs
  end

(* Another node holds [bs] exclusive: [node]'s cursor is stale.  A
   match rather than [bs.excl <> Some node], which allocates. *)
let stale_writer bs node =
  match bs.excl with Some o -> o <> node | None -> false

(* Reset [node]'s stale cursor.  A stale writer has touched the object,
   so its cursors exist. *)
let drop_stale bs node = if stale_writer bs node then bs.cursors.(node) <- 0

let big_read_all t ctx h bs =
  let node = ctx.Ctx.node in
  (* A stale exclusive holder forces a round even with a full cursor. *)
  drop_stale bs node;
  big_fault t ctx h bs ~want:(h.nblocks - cursor bs node)

(* The nodes other than [node] with faulted blocks among nodes
   [0, m], in ascending order, onto [acc].  A cursor array that was
   never allocated has no sharers: [m] starts at its length less 1. *)
let rec sharers bs node m acc =
  if m < 0 then acc
  else
    sharers bs node (m - 1)
      (if m <> node && bs.cursors.(m) > 0 then m :: acc else acc)

let big_acquire t ctx h bs =
  let node = ctx.Ctx.node in
  if (match bs.excl with Some o -> o = node | None -> false) then
    Ctx.charge_cycles ctx hit_check_cycles
  else begin
    let third =
      distinct
        (sharers bs node (Array.length bs.cursors - 1) []
        @ match bs.excl with Some o when o <> node -> [ o ] | Some _ | None -> [])
    in
    (if h.obj_home = node && third = [] then
       Ctx.charge_cycles ctx (hit_check_cycles +. 900.0)
     else begin
       t.wmisses <- t.wmisses + 1;
       Ctx.note_remote_access ctx ~target:h.obj_home;
       directory_round t ctx ~home:h.obj_home ~resp_bytes:32 ~nblocks:h.nblocks
         ~third_parties:third ~third_bytes:32
     end);
    let cursors = cursors t bs in
    Array.fill cursors 0 (Array.length cursors) 0;
    cursors.(node) <- h.nblocks;
    bs.excl <- Some node
  end

(* ------------------------------------------------------------------ *)
(* Public object interface                                              *)

let ensure_shared t ctx h =
  match h.layout with
  | Small blocks_ -> small_read t ctx h blocks_
  | Big bs -> big_read_all t ctx h bs

let read_part t ctx h ~bytes =
  match h.layout with
  | Small blocks_ -> small_read t ctx h blocks_
  | Big bs ->
      let node = ctx.Ctx.node in
      drop_stale bs node;
      if cursor bs node >= h.nblocks then
        Ctx.charge_cycles ctx hit_check_cycles
      else begin
        (* Strict on-demand faulting: one block per directory round (GAM
           has no read-ahead), so a streaming touch of [bytes] issues one
           round per block it crosses. *)
        let rounds = max 1 ((bytes + block_size - 1) / block_size) in
        for _ = 1 to rounds do
          if cursor bs node < h.nblocks then big_fault t ctx h bs ~want:1
        done
      end

let read t ctx h =
  ensure_shared t ctx h;
  match Intmap.find t.store h.oid with
  | v -> v
  | exception Not_found -> invalid_arg "Gam.read: freed object"

let acquire_exclusive t ctx h =
  match h.layout with
  | Small blocks_ -> small_acquire t ctx h blocks_
  | Big bs -> big_acquire t ctx h bs

let write t ctx h v =
  acquire_exclusive t ctx h;
  Intmap.set t.store h.oid v

let update t ctx h f =
  acquire_exclusive t ctx h;
  match Intmap.find t.store h.oid with
  | v -> Intmap.set t.store h.oid (f v)
  | exception Not_found -> invalid_arg "Gam.update: freed object"

(* The freed object leaves its blocks; a block's entry goes with its
   last live object. *)
let rec release_blocks t = function
  | [] -> ()
  | b :: rest ->
      (match Intmap.find t.directory b with
      | e ->
          e.live <- e.live - 1;
          if e.live <= 0 then Intmap.remove t.directory b
      | exception Not_found -> ());
      release_blocks t rest

let free t ctx h =
  Ctx.charge_cycles ctx 120.0;
  (* A second free of the object must not count it out of its blocks
     again. *)
  if Intmap.mem t.store h.oid then begin
    Intmap.remove t.store h.oid;
    match h.layout with
    | Small blocks_ -> release_blocks t blocks_
    | Big _ -> ()
  end

let read_misses t = t.rmisses
let write_misses t = t.wmisses
let invalidations_sent t = t.invs

(* -------------------------------------------------------------------- *)
(* GAM locks: two-sided messages to the lock's home, queueing there.     *)

type gmutex = { lock_home : int; unit_ : Resource.t }

type Dsm.handle += H of handle
type Dsm.mutex += M of gmutex

let handle_of = function H h -> h | _ -> Dsm.foreign "gam"
let mutex_of = function M m -> m | _ -> Dsm.foreign "gam"

let mutex_lock t ctx m =
  let fabric = Cluster.fabric t.cluster in
  if m.lock_home = ctx.Ctx.node then begin
    Ctx.charge_cycles ctx 600.0;
    Resource.acquire m.unit_
  end
  else begin
    Ctx.flush ctx;
    (* The lock's home queues the request inline between the RPC's
       halves; neither step raises. *)
    let from = ctx.Ctx.node in
    let vs =
      Fabric.rpc_request fabric ~from ~target:m.lock_home ~req_bytes:64
        ~resp_bytes:32
    in
    Resource.acquire m.unit_;
    Engine.delay (Cluster.engine t.cluster) 1.0e-6;
    Fabric.rpc_reply fabric vs ~from ~target:m.lock_home ~resp_bytes:32
  end

let mutex_unlock t ctx m =
  let fabric = Cluster.fabric t.cluster in
  if m.lock_home = ctx.Ctx.node then begin
    Ctx.charge_cycles ctx 400.0;
    Resource.release m.unit_
  end
  else begin
    Ctx.flush ctx;
    let from = ctx.Ctx.node in
    let vs =
      Fabric.rpc_request fabric ~from ~target:m.lock_home ~req_bytes:64
        ~resp_bytes:8
    in
    match Resource.release m.unit_ with
    | () -> Fabric.rpc_reply fabric vs ~from ~target:m.lock_home ~resp_bytes:8
    | exception e ->
        (* An unlock of a mutex nobody holds. *)
        Fabric.rpc_abort fabric vs;
        raise e
  end

let backend t =
  {
    Dsm.name = "GAM";
    alloc = (fun ctx ~size v -> H (alloc t ctx ~size v));
    alloc_on = (fun ctx ~node ~size v -> H (alloc_on t ctx ~node ~size v));
    read = (fun ctx h -> read t ctx (handle_of h));
    write = (fun ctx h v -> write t ctx (handle_of h) v);
    update = (fun ctx h f -> update t ctx (handle_of h) f);
    free = (fun ctx h -> free t ctx (handle_of h));
    read_part = (fun ctx h ~bytes -> read_part t ctx (handle_of h) ~bytes);
    process =
      (fun ctx h ~cycles ->
        let v = read t ctx (handle_of h) in
        Ctx.compute ctx ~cycles;
        v);
    process_update =
      (fun ctx h ~cycles f ->
        update t ctx (handle_of h) f;
        Ctx.compute ctx ~cycles);
    home = (fun h -> home (handle_of h));
    tie = (fun _ctx ~parent:_ ~child:_ -> ());
    supports_affinity = false;
    mutex_create =
      (fun ctx ->
        M
          {
            lock_home = ctx.Ctx.node;
            unit_ = Resource.create (Cluster.engine t.cluster) ~capacity:1;
          });
    mutex_lock = (fun ctx m -> mutex_lock t ctx (mutex_of m));
    mutex_unlock = (fun ctx m -> mutex_unlock t ctx (mutex_of m));
  }
