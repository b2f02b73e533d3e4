(* Tests for the DRust coherence protocol (Algorithms 1-8): moves on
   remote writes, color bumps on local writes, colored-address cache
   invalidation, owner write-back, affinity groups, and — the crown — a
   property test of the paper's data-value invariant over random SWMR
   schedules. *)

module Engine = Drust_sim.Engine
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module P = Drust_core.Protocol
module Gaddr = Drust_memory.Gaddr
module Cache = Drust_memory.Cache
module Univ = Drust_util.Univ
module B = Drust_ownership.Borrow_state

let int_tag : int Univ.tag = Univ.create_tag ~name:"int"
let pack = Univ.pack int_tag
let unpack v = Univ.unpack_exn int_tag v

let small_params nodes =
  {
    Params.default with
    Params.nodes;
    cores_per_node = 4;
    mem_per_node = Drust_util.Units.mib 64;
  }

(* Run [body] as a simulated process on node 0 of a fresh cluster and
   drive the engine to completion. *)
let in_cluster ?(nodes = 4) body =
  let cluster = Cluster.create (small_params nodes) in
  let result = ref None in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         result := Some (body cluster)));
  Cluster.run cluster;
  match !result with Some v -> v | None -> Alcotest.fail "body did not run"

let ctx_on cluster node = Ctx.make cluster ~node

(* ------------------------------------------------------------------ *)
(* Basics *)

let test_create_reads_back () =
  in_cluster (fun cluster ->
      let ctx = ctx_on cluster 0 in
      let o = P.create ctx ~size:64 (pack 7) in
      Alcotest.(check int) "read" 7 (unpack (P.owner_read ctx o));
      Alcotest.(check int) "allocated locally" 0 (Gaddr.node_of (P.gaddr o)))

let test_local_write_bumps_color_once () =
  in_cluster (fun cluster ->
      let ctx = ctx_on cluster 0 in
      let o = P.create ctx ~size:64 (pack 0) in
      Alcotest.(check int) "color 0" 0 (Gaddr.color_of (P.gaddr o));
      P.owner_write ctx o (pack 1);
      Alcotest.(check int) "color bumped" 1 (Gaddr.color_of (P.gaddr o));
      (* Second write in the same epoch: U bit suppresses another bump. *)
      P.owner_write ctx o (pack 2);
      Alcotest.(check int) "no second bump" 1 (Gaddr.color_of (P.gaddr o));
      Alcotest.(check int) "value" 2 (unpack (P.owner_read ctx o)))

let test_ubit_reset_on_imm_borrow () =
  in_cluster (fun cluster ->
      let ctx = ctx_on cluster 0 in
      let o = P.create ctx ~size:64 (pack 0) in
      P.owner_write ctx o (pack 1);
      Alcotest.(check int) "first epoch" 1 (Gaddr.color_of (P.gaddr o));
      let r = P.borrow_imm ctx o in
      Alcotest.(check int) "borrow sees v1" 1 (unpack (P.imm_deref ctx r));
      P.drop_imm ctx r;
      (* New epoch after the read: the next write must change the colored
         address again (Global-Address-Change-on-Write invariant). *)
      P.owner_write ctx o (pack 2);
      Alcotest.(check int) "second epoch" 2 (Gaddr.color_of (P.gaddr o)))

let test_remote_write_moves_object () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let o = P.create ctx0 ~size:64 (pack 5) in
      Alcotest.(check int) "starts on 0" 0 (Gaddr.node_of (P.gaddr o));
      (* A writer on node 2 takes a mutable borrow: the object must move
         into node 2's partition. *)
      let ctx2 = ctx_on cluster 2 in
      let m = P.borrow_mut ctx2 o in
      P.mut_write ctx2 m (pack 6);
      P.drop_mut ctx2 m;
      Alcotest.(check int) "moved to 2" 2 (Gaddr.node_of (P.gaddr o));
      Alcotest.(check int) "move count" 1 (P.moves ctx2);
      Alcotest.(check int) "reader on 0 sees new value" 6
        (unpack (P.owner_read ctx0 o)))

let test_remote_read_caches () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let o = P.create ctx0 ~size:64 (pack 9) in
      let ctx1 = ctx_on cluster 1 in
      let r = P.borrow_imm ctx1 o in
      Alcotest.(check int) "first read fetches" 9 (unpack (P.imm_deref ctx1 r));
      let node1 = Cluster.node cluster 1 in
      Alcotest.(check bool) "cached on node 1" true
        (Cache.peek node1.Cluster.cache (P.gaddr o) <> None);
      (* Address unchanged by the read. *)
      Alcotest.(check int) "object stayed home" 0 (Gaddr.node_of (P.gaddr o));
      Alcotest.(check int) "second read hits" 9 (unpack (P.imm_deref ctx1 r));
      P.drop_imm ctx1 r)

let test_stale_cache_not_read_after_write () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let o = P.create ctx0 ~size:64 (pack 1) in
      (* Node 1 reads and caches v1. *)
      let ctx1 = ctx_on cluster 1 in
      let r1 = P.borrow_imm ctx1 o in
      Alcotest.(check int) "v1 cached" 1 (unpack (P.imm_deref ctx1 r1));
      P.drop_imm ctx1 r1;
      (* Owner writes v2 locally (color bump, no invalidation message). *)
      P.owner_write ctx0 o (pack 2);
      (* Node 1 borrows again: colored address changed, cache misses, the
         fresh value is fetched. *)
      let r2 = P.borrow_imm ctx1 o in
      Alcotest.(check int) "v2 visible on node 1" 2 (unpack (P.imm_deref ctx1 r2));
      P.drop_imm ctx1 r2)

let test_concurrent_readers_on_multiple_nodes () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let o = P.create ctx0 ~size:64 (pack 11) in
      let refs =
        List.init 3 (fun i ->
            let ctx = ctx_on cluster (i + 1) in
            (ctx, P.borrow_imm ctx o))
      in
      List.iter
        (fun (ctx, r) ->
          Alcotest.(check int) "each node reads" 11 (unpack (P.imm_deref ctx r)))
        refs;
      List.iter (fun (ctx, r) -> P.drop_imm ctx r) refs)

let test_drop_mut_writes_back_to_owner () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let o = P.create ctx0 ~size:64 (pack 0) in
      let ctx3 = ctx_on cluster 3 in
      let m = P.borrow_mut ctx3 o in
      P.mut_write ctx3 m (pack 1);
      (* Before the drop, the owner's address is stale — that is fine
         because the single-writer invariant forbids owner access now. *)
      P.drop_mut ctx3 m;
      Alcotest.(check bool) "owner updated to writer's address" true
        (Gaddr.node_of (P.gaddr o) = 3))

let test_mut_read_moves_too () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let o = P.create ctx0 ~size:64 (pack 42) in
      let ctx1 = ctx_on cluster 1 in
      let m = P.borrow_mut ctx1 o in
      Alcotest.(check int) "read via mut" 42 (unpack (P.mut_read ctx1 m));
      P.drop_mut ctx1 m;
      Alcotest.(check int) "claimed locally" 1 (Gaddr.node_of (P.gaddr o)))

let test_borrow_discipline_enforced () =
  in_cluster (fun cluster ->
      let ctx = ctx_on cluster 0 in
      let o = P.create ctx ~size:64 (pack 0) in
      let r = P.borrow_imm ctx o in
      Alcotest.(check bool) "mut while imm" true
        (try
           ignore (P.borrow_mut ctx o);
           false
         with B.Violation _ -> true);
      P.drop_imm ctx r;
      let m = P.borrow_mut ctx o in
      Alcotest.(check bool) "imm while mut" true
        (try
           ignore (P.borrow_imm ctx o);
           false
         with B.Violation _ -> true);
      P.drop_mut ctx m)

let test_color_overflow_moves () =
  in_cluster (fun cluster ->
      let ctx = ctx_on cluster 0 in
      let o = P.create ctx ~size:32 (pack 0) in
      let initial_phys = Gaddr.clear_color (P.gaddr o) in
      (* Write through max_color epochs: each epoch is borrow-read (resets
         U bit) + write (bumps).  Spot-check with a smaller loop against
         the real overflow threshold would take 65k iterations — do them
         but with the cheap owner path. *)
      for i = 1 to Gaddr.max_color + 1 do
        let r = P.borrow_imm ctx o in
        ignore (P.imm_deref ctx r);
        P.drop_imm ctx r;
        P.owner_write ctx o (pack i)
      done;
      Alcotest.(check bool) "address moved on overflow" false
        (Gaddr.equal initial_phys (Gaddr.clear_color (P.gaddr o)));
      Alcotest.(check int) "value survives" (Gaddr.max_color + 1)
        (unpack (P.owner_read ctx o)))

let test_transfer_evicts_source_cache () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let ctx1 = ctx_on cluster 1 in
      let o = P.create_on ctx0 ~node:0 ~size:64 (pack 3) in
      (* Owner box moves to node 1's thread; then node 1 reads (caches),
         transfers to node 2: node 1's cached copy must be evicted. *)
      P.transfer ctx0 o ~to_node:1;
      ignore (P.owner_read ctx1 o);
      Alcotest.(check bool) "cached on 1" true
        (Cache.used_bytes (Cluster.node cluster 1).Cluster.cache > 0);
      P.transfer ctx1 o ~to_node:2;
      Alcotest.(check int) "evicted on 1" 0
        (Cache.used_bytes (Cluster.node cluster 1).Cluster.cache))

let test_transfer_while_borrowed_rejected () =
  in_cluster (fun cluster ->
      let ctx = ctx_on cluster 0 in
      let o = P.create ctx ~size:64 (pack 0) in
      let r = P.borrow_imm ctx o in
      Alcotest.(check bool) "rejected" true
        (try
           P.transfer ctx o ~to_node:1;
           false
         with B.Violation _ -> true);
      P.drop_imm ctx r)

let test_drop_owner_frees () =
  in_cluster (fun cluster ->
      let ctx = ctx_on cluster 0 in
      let o = P.create ctx ~size:64 (pack 0) in
      let g = P.gaddr o in
      P.drop_owner ctx o;
      Alcotest.(check bool) "freed" false (Cluster.heap_mem cluster g);
      Alcotest.(check bool) "use after drop" true
        (try
           ignore (P.owner_read ctx o);
           false
         with B.Violation _ -> true))

(* Every owner entry point, called on a dropped owner, raises the one
   violation the borrow automaton raises for a dead owner: kind
   Use_after_death, state Dead, and the entry point's own name. *)
let test_dropped_owner_matrix () =
  in_cluster (fun cluster ->
      let ctx = ctx_on cluster 0 in
      let live = P.create ctx ~size:64 (pack 0) in
      let dead = P.create ctx ~size:64 (pack 1) in
      P.drop_owner ctx dead;
      let raises what context f =
        match f () with
        | () -> Alcotest.failf "%s on a dropped owner did not raise" what
        | exception B.Violation v ->
            Alcotest.(check bool) (what ^ ": use after death") true
              (v.kind = B.Use_after_death);
            Alcotest.(check bool) (what ^ ": state Dead") true (v.state = B.Dead);
            Alcotest.(check string) (what ^ ": context") context v.context
      in
      raises "borrow_imm" "Protocol.borrow_imm" (fun () ->
          ignore (P.borrow_imm ctx dead));
      raises "borrow_mut" "Protocol.borrow_mut" (fun () ->
          ignore (P.borrow_mut ctx dead));
      raises "owner_read" "Protocol.owner_read" (fun () ->
          ignore (P.owner_read ctx dead));
      raises "owner_write" "Protocol.owner_write" (fun () ->
          P.owner_write ctx dead (pack 2));
      raises "owner_modify" "Protocol.owner_modify" (fun () ->
          P.owner_modify ctx dead Fun.id);
      raises "transfer" "Protocol.transfer" (fun () ->
          P.transfer ctx dead ~to_node:1);
      raises "drop_owner" "Protocol.drop_owner" (fun () -> P.drop_owner ctx dead);
      raises "tie (dead parent)" "Protocol.tie" (fun () ->
          P.tie ctx ~parent:dead ~child:live);
      raises "tie (dead child)" "Protocol.tie" (fun () ->
          P.tie ctx ~parent:live ~child:dead);
      raises "pin" "Protocol.pin" (fun () -> P.pin ctx dead))

let test_dealloc_invalidates_remote_caches () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let ctx1 = ctx_on cluster 1 in
      let o = P.create ctx0 ~size:64 (pack 8) in
      let r = P.borrow_imm ctx1 o in
      ignore (P.imm_deref ctx1 r);
      P.drop_imm ctx1 r;
      P.drop_owner ctx0 o;
      (* The async invalidation runs a little later in virtual time. *)
      Engine.delay (Cluster.engine cluster) 1e-3;
      Alcotest.(check int) "remote cache invalidated" 0
        (Cache.used_bytes (Cluster.node cluster 1).Cluster.cache))

let test_clone_imm_starts_null () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let o = P.create ctx0 ~size:64 (pack 4) in
      let ctx1 = ctx_on cluster 1 in
      let r = P.borrow_imm ctx1 o in
      ignore (P.imm_deref ctx1 r);
      let ctx2 = ctx_on cluster 2 in
      let r2 = P.clone_imm ctx2 r in
      Alcotest.(check int) "clone reads" 4 (unpack (P.imm_deref ctx2 r2));
      P.drop_imm ctx2 r2;
      P.drop_imm ctx1 r;
      Alcotest.(check bool) "borrow balanced" true
        (B.state
           (let m = P.borrow_mut ctx0 o in
            let st = B.Mut_borrowed in
            P.drop_mut ctx0 m;
            ignore st;
            B.create ())
         = B.Owned))

(* ------------------------------------------------------------------ *)
(* The fused read against borrow_imm / imm_deref / drop_imm *)

module Tap = Drust_memory.Tap
module Metrics = Drust_obs.Metrics
module Flight = Drust_obs.Flight

let three_calls ctx o =
  let r = P.borrow_imm ctx o in
  let v = P.imm_deref ctx r in
  P.drop_imm ctx r;
  v

type path = Local | Cached | Fetch

let describe_event (ev : Tap.event) =
  let g = Gaddr.to_int in
  match ev with
  | Create { g = a; size } -> Printf.sprintf "create %d %d" (g a) size
  | Read { g = a; path = Path_local } -> Printf.sprintf "read local %d" (g a)
  | Read { g = a; path = Path_cache k } ->
      Printf.sprintf "read cache %d key %d" (g a) (g k)
  | Read { g = a; path = Path_fetch } -> Printf.sprintf "read fetch %d" (g a)
  | Borrow_imm { g = a } -> Printf.sprintf "borrow_imm %d" (g a)
  | Return_imm { g = a } -> Printf.sprintf "return_imm %d" (g a)
  | Cache_hit { key } -> Printf.sprintf "cache hit %d" (g key)
  | Cache_insert { key; size } -> Printf.sprintf "cache insert %d %d" (g key) size
  | Cache_release { key; refcount } ->
      Printf.sprintf "cache release %d -> %d" (g key) refcount
  | Cache_stale_miss { sought; cached } ->
      Printf.sprintf "cache stale miss %d cached %d" (g sought) (g cached)
  | Cache_invalidate { key } -> Printf.sprintf "cache invalidate %d" (g key)
  | _ -> "other"

(* Every sample of a registry, floats in hex so that equal renderings
   mean bit-identical values. *)
let describe_metrics snap =
  List.map
    (fun (s : Metrics.sample) ->
      let labels =
        String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) s.s_labels)
      in
      let value =
        match s.s_value with
        | Metrics.Count n -> string_of_int n
        | Level x -> Printf.sprintf "%h" x
        | Histo h -> Printf.sprintf "%d/%h" h.h_count h.h_sum
      in
      Printf.sprintf "%s{%s} %s" s.s_name labels value)
    snap

(* One read of a 64-byte object on node 0, with a tied 32-byte child, on
   a fresh 2-node cluster, through [read_with]: from node 0 ([Local]),
   or from node 1 cold ([Fetch]) or after a warming read ([Cached]).
   Returns everything the two ways of reading must agree on. *)
let observe_read path read_with =
  let cluster = Cluster.create (small_params 2) in
  let events = ref [] in
  Tap.set (Cluster.tap cluster)
    (Some
       (fun ~node ~thread ev ->
         events := Printf.sprintf "n%d t%d %s" node thread (describe_event ev)
                   :: !events));
  let result = ref None in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         let ctx0 = ctx_on cluster 0 in
         let o = P.create ctx0 ~size:64 (pack 41) in
         let child = P.create ctx0 ~size:32 (pack 0) in
         P.tie ctx0 ~parent:o ~child;
         let reader = if path = Local then ctx0 else ctx_on cluster 1 in
         if path = Cached then ignore (read_with reader o);
         let v = unpack (read_with reader o) in
         let cache = (Cluster.node cluster reader.Ctx.node).Cluster.cache in
         let refcount x =
           Option.map (fun c -> c.Cache.refcount) (Cache.lookup cache (P.gaddr x))
         in
         let time = Engine.now (Cluster.engine cluster) in
         (* A borrow the read left held would refuse a mutable one. *)
         let free =
           match P.borrow_mut ctx0 o with
           | m ->
               P.drop_mut ctx0 m;
               true
           | exception B.Violation _ -> false
         in
         result := Some (v, (refcount o, refcount child), time, free)));
  Cluster.run cluster;
  let v, refcounts, time, free = Option.get !result in
  Alcotest.(check bool) "no borrow left held" true free;
  let snap = Metrics.snapshot (Cluster.metrics cluster) in
  let flight =
    List.map
      (fun (e : Flight.event) ->
        Printf.sprintf "%h %d %d %d %d %d %d" e.ev_time e.ev_node e.ev_kind
          e.ev_a e.ev_b e.ev_c e.ev_d)
      (Flight.events (Cluster.flight cluster))
  in
  (v, refcounts, time, List.rev !events, describe_metrics snap, flight, snap)

let test_read_matches_three_calls path kind () =
  let v, refcounts, time, events, metrics, flight, snap =
    observe_read path P.read
  in
  let v', refcounts', time', events', metrics', flight', _ =
    observe_read path three_calls
  in
  Alcotest.(check int) "value" 41 v;
  Alcotest.(check int) "same value" v' v;
  Alcotest.(check (pair (option int) (option int)))
    "copy refcounts afterwards" refcounts' refcounts;
  Alcotest.(check (float 0.0)) "same virtual time" time' time;
  Alcotest.(check (list string)) "tap events" events' events;
  Alcotest.(check (list string)) "metrics" metrics' metrics;
  Alcotest.(check (list string)) "flight records" flight' flight;
  match
    Metrics.find snap ~labels:[ ("op", Flight.kind_names.(kind)) ]
      "protocol.op_latency"
  with
  | Some (Metrics.Histo h) ->
      Alcotest.(check int) "one op_latency sample on the path" 1 h.h_count
  | _ -> Alcotest.fail "no op_latency histogram"

(* A read against a mutably borrowed owner raises before it takes
   anything: once the mutable borrow is returned, the owner is free. *)
let test_read_violation_holds_nothing () =
  in_cluster (fun cluster ->
      let ctx = ctx_on cluster 0 in
      let o = P.create ctx ~size:64 (pack 3) in
      let m = P.borrow_mut ctx o in
      Alcotest.(check bool) "read while mut raises" true
        (match P.read ctx o with
        | _ -> false
        | exception B.Violation _ -> true);
      P.drop_mut ctx m;
      (* A leaked immutable borrow would make both of these raise. *)
      P.drop_mut ctx (P.borrow_mut ctx o);
      P.transfer ctx o ~to_node:1;
      Alcotest.(check int) "reads after" 3 (unpack (P.read ctx o)))

(* ------------------------------------------------------------------ *)
(* Owner reads (Alg. 7), path by path *)

type owner_path =
  | O_local  (** the owner reads on the object's home *)
  | O_held  (** remote, the owner's copy is current *)
  | O_stale  (** remote, the owner's copy predates the home's write *)
  | O_node_cache  (** remote, a copy another read left in the node cache *)
  | O_fetch  (** remote and cold *)
  | O_pinned  (** remote read of a pinned object in a write epoch *)

(* One measured [owner_read] of a 64-byte object on node 0 (with a tied
   32-byte child) on a fresh 2-node cluster, after [path]'s setup, from
   node 1 (node 0 for [O_local]).  Returns what the read alone produced
   and left: the value, its tap events and flight kinds, the virtual
   time it charged (elapsed seconds and pending cycles, in hex), the
   refcount of the reader's node-cache copy under the owner's current
   address, and the object's color after a follow-up write on node 0,
   which bumps it again only if the read reset the U bit. *)
let observe_owner_read path =
  let cluster = Cluster.create (small_params 2) in
  let events = ref [] in
  Tap.set (Cluster.tap cluster)
    (Some
       (fun ~node ~thread ev ->
         events := Printf.sprintf "n%d t%d %s" node thread (describe_event ev)
                   :: !events));
  let flight () = Flight.events (Cluster.flight cluster) in
  let result = ref None in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         let ctx0 = ctx_on cluster 0 in
         let o = P.create ctx0 ~size:64 (pack 41) in
         let child = P.create ctx0 ~size:32 (pack 0) in
         P.tie ctx0 ~parent:o ~child;
         let reader = if path = O_local then ctx0 else ctx_on cluster 1 in
         (match path with
         | O_local | O_fetch -> ()
         | O_held -> ignore (P.owner_read reader o)
         | O_stale ->
             ignore (P.owner_read reader o);
             P.owner_write ctx0 o (pack 42)
         | O_node_cache -> ignore (P.read reader o)
         | O_pinned ->
             P.pin ctx0 o;
             P.owner_write ctx0 o (pack 42));
         Ctx.flush reader;
         events := [];
         let flight_before = List.length (flight ()) in
         let engine = Cluster.engine cluster in
         let t0 = Engine.now engine in
         let p0 = reader.Ctx.cpu.Ctx.pending_cycles in
         let v = unpack (P.owner_read reader o) in
         let charged =
           Printf.sprintf "%h s + %h cycles" (Engine.now engine -. t0)
             (reader.Ctx.cpu.Ctx.pending_cycles -. p0)
         in
         let read_events = List.rev !events in
         let kinds =
           List.filteri (fun i _ -> i >= flight_before) (flight ())
           |> List.map (fun (e : Flight.event) -> Flight.kind_names.(e.ev_kind))
         in
         let cache = (Cluster.node cluster reader.Ctx.node).Cluster.cache in
         let pinned =
           Option.map (fun c -> c.Cache.refcount) (Cache.peek cache (P.gaddr o))
         in
         P.owner_write ctx0 o (pack 43);
         let color = Gaddr.color_of (P.gaddr o) in
         result := Some (v, read_events, kinds, charged, pinned, color)));
  Cluster.run cluster;
  Option.get !result

let test_owner_read_path path ~value ~events ~kinds ~charged ~pinned ~color ()
    =
  let v, events', kinds', charged', pinned', color' = observe_owner_read path in
  Alcotest.(check int) "value" value v;
  Alcotest.(check (list string)) "tap events" events events';
  Alcotest.(check (list string)) "flight kinds" kinds kinds';
  Alcotest.(check string) "virtual time charged" charged charged';
  Alcotest.(check (option int)) "owner pins a copy" pinned pinned';
  Alcotest.(check int) "color after a follow-up write" color color'

(* ------------------------------------------------------------------ *)
(* Affinity (TBox) *)

let test_tie_colocates () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let parent = P.create_on ctx0 ~node:0 ~size:64 (pack 1) in
      let child = P.create_on ctx0 ~node:2 ~size:64 (pack 2) in
      P.tie ctx0 ~parent ~child;
      Alcotest.(check int) "child moved next to parent" 0
        (Gaddr.node_of (P.gaddr child));
      Alcotest.(check int) "group size" 128 (P.group_size parent))

let test_group_moves_together () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let parent = P.create_on ctx0 ~node:0 ~size:64 (pack 1) in
      let child = P.create_on ctx0 ~node:0 ~size:64 (pack 2) in
      P.tie ctx0 ~parent ~child;
      let ctx1 = ctx_on cluster 1 in
      let m = P.borrow_mut ctx1 parent in
      P.mut_write ctx1 m (pack 10);
      P.drop_mut ctx1 m;
      Alcotest.(check int) "parent on 1" 1 (Gaddr.node_of (P.gaddr parent));
      Alcotest.(check int) "child followed" 1 (Gaddr.node_of (P.gaddr child)))

let test_group_fetch_seeds_cache () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let parent = P.create_on ctx0 ~node:0 ~size:64 (pack 1) in
      let child = P.create_on ctx0 ~node:0 ~size:64 (pack 2) in
      P.tie ctx0 ~parent ~child;
      let ctx1 = ctx_on cluster 1 in
      let r = P.borrow_imm ctx1 parent in
      ignore (P.imm_deref ctx1 r);
      (* Both parent and child copies should now be on node 1. *)
      let cache = (Cluster.node cluster 1).Cluster.cache in
      Alcotest.(check bool) "two entries cached" true
        (Cache.peek cache (P.gaddr parent) <> None
        && Cache.peek cache (P.gaddr child) <> None);
      P.drop_imm ctx1 r)

let test_tie_cycle_rejected () =
  in_cluster (fun cluster ->
      let ctx = ctx_on cluster 0 in
      let a = P.create ctx ~size:8 (pack 1) in
      let b = P.create ctx ~size:8 (pack 2) in
      P.tie ctx ~parent:a ~child:b;
      Alcotest.(check bool) "cycle rejected" true
        (try
           P.tie ctx ~parent:b ~child:a;
           false
         with Invalid_argument _ -> true);
      Alcotest.(check bool) "double tie rejected" true
        (try
           P.tie ctx ~parent:a ~child:b;
           false
         with Invalid_argument _ -> true))

let test_clone_chains_balance () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let o = P.create ctx0 ~size:64 (pack 1) in
      (* Clone a chain r -> r2 -> r3 across nodes; all read correctly and
         every drop rebalances the borrow count. *)
      let r = P.borrow_imm ctx0 o in
      let ctx1 = ctx_on cluster 1 in
      let r2 = P.clone_imm ctx1 r in
      let ctx2 = ctx_on cluster 2 in
      let r3 = P.clone_imm ctx2 r2 in
      Alcotest.(check int) "r3 reads" 1 (unpack (P.imm_deref ctx2 r3));
      P.drop_imm ctx0 r;
      P.drop_imm ctx1 r2;
      Alcotest.(check int) "r3 still valid" 1 (unpack (P.imm_deref ctx2 r3));
      P.drop_imm ctx2 r3;
      (* Balanced: a mutable borrow is possible again. *)
      let m = P.borrow_mut ctx0 o in
      P.mut_write ctx0 m (pack 2);
      P.drop_mut ctx0 m;
      Alcotest.(check int) "write after drain" 2 (unpack (P.owner_read ctx0 o)))

let test_group_size_transitive () =
  in_cluster (fun cluster ->
      let ctx = ctx_on cluster 0 in
      let a = P.create ctx ~size:10 (pack 0) in
      let b = P.create ctx ~size:20 (pack 1) in
      let c = P.create ctx ~size:30 (pack 2) in
      P.tie ctx ~parent:b ~child:c;
      P.tie ctx ~parent:a ~child:b;
      Alcotest.(check int) "transitive bytes" 60 (P.group_size a);
      Alcotest.(check int) "subgroup" 50 (P.group_size b))

let test_tie_pinned_rejected () =
  in_cluster (fun cluster ->
      let ctx = ctx_on cluster 0 in
      let parent = P.create ctx ~size:8 (pack 0) in
      let child = P.create ctx ~size:8 (pack 1) in
      P.pin ctx child;
      Alcotest.(check bool) "pinned child rejected" true
        (try
           P.tie ctx ~parent ~child;
           false
         with Invalid_argument _ -> true);
      (* The pin held: a remote mutable borrow leaves the child home. *)
      let ctx1 = ctx_on cluster 1 in
      P.drop_mut ctx1 (P.borrow_mut ctx1 child);
      Alcotest.(check int) "pinned child stays home" 0 (Gaddr.node_of (P.gaddr child));
      P.tie ctx ~parent:child ~child:parent |> ignore;
      (* tying UNDER a pinned parent is fine *)
      Alcotest.(check int) "group under pin" 16 (P.group_size child))

let test_pinned_never_moves () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let o = P.create_on ctx0 ~node:0 ~size:64 (pack 1) in
      P.pin ctx0 o;
      let ctx1 = ctx_on cluster 1 in
      let m = P.borrow_mut ctx1 o in
      P.mut_write ctx1 m (pack 2);
      P.drop_mut ctx1 m;
      Alcotest.(check int) "still on node 0" 0 (Gaddr.node_of (P.gaddr o));
      Alcotest.(check int) "value written through" 2 (unpack (P.owner_read ctx0 o)))

(* ------------------------------------------------------------------ *)
(* The data-value invariant, property-tested.

   We generate a random schedule of operations over a handful of objects
   and nodes, always respecting the SWMR discipline (the generator only
   emits legal schedules — rustc would have rejected the rest).  A
   shadow oracle records the last written value per object; every read
   executed by the protocol must return the oracle value. *)

type oracle_obj = {
  owner : P.owner;
  mutable expected : int;
  mutable readers : (Ctx.t * P.imm) list;
  mutable box_node : int; (* where the owner box currently lives *)
}

let prop_data_value_invariant =
  QCheck.Test.make ~name:"data-value invariant over random SWMR schedules"
    ~count:60
    QCheck.(pair small_int (list_of_size Gen.(return 120) (pair small_int small_int)))
    (fun (seed, script) ->
      in_cluster ~nodes:4 (fun cluster ->
          let rng = Drust_util.Rng.create ~seed:(seed + 1) in
          let ctxs = Array.init 4 (fun n -> ctx_on cluster n) in
          let objs =
            Array.init 3 (fun i ->
                {
                  owner = P.create ctxs.(0) ~size:64 (pack (1000 + i));
                  expected = 1000 + i;
                  readers = [];
                  box_node = 0;
                })
          in
          let step (a, b) =
            let obj = objs.(abs a mod 3) in
            let node = abs b mod 4 in
            let ctx = ctxs.(node) in
            match abs (a + b) mod 6 with
            | 0 ->
                (* open a reader somewhere *)
                let r = P.borrow_imm ctx obj.owner in
                let v = unpack (P.imm_deref ctx r) in
                if v <> obj.expected then
                  failwith
                    (Printf.sprintf "reader saw %d, expected %d" v obj.expected);
                obj.readers <- (ctx, r) :: obj.readers
            | 1 -> (
                (* close one reader *)
                match obj.readers with
                | [] -> ()
                | (rctx, r) :: rest ->
                    let v = unpack (P.imm_deref rctx r) in
                    (* A still-open reader may legitimately see the value
                       from when its borrow epoch started; since we only
                       write when no readers exist, expected is stable. *)
                    if v <> obj.expected then
                      failwith "open reader diverged from oracle";
                    P.drop_imm rctx r;
                    obj.readers <- rest)
            | 2 | 3 ->
                (* write, only legal when no readers are open *)
                if obj.readers = [] then begin
                  let nv = Drust_util.Rng.int rng 100_000 in
                  let m = P.borrow_mut ctx obj.owner in
                  P.mut_write ctx m (pack nv);
                  P.drop_mut ctx m;
                  obj.expected <- nv
                end
            | 4 ->
                (* owner read from the owner's box node *)
                if obj.readers = [] then begin
                  let v = unpack (P.owner_read ctxs.(obj.box_node) obj.owner) in
                  if v <> obj.expected then failwith "owner read diverged"
                end
            | _ ->
                (* ownership transfer: the box moves to another thread's
                   node (spawn/channel semantics); legal only with no
                   outstanding borrows *)
                if obj.readers = [] then begin
                  P.transfer ctxs.(obj.box_node) obj.owner ~to_node:node;
                  obj.box_node <- node;
                  (* The new owner immediately reads: must see the oracle
                     value (ownership transfer preserves the heap). *)
                  let v = unpack (P.owner_read ctxs.(node) obj.owner) in
                  if v <> obj.expected then failwith "post-transfer read diverged"
                end
          in
          List.iter step script;
          (* Drain readers and verify once more. *)
          Array.iter
            (fun obj ->
              List.iter
                (fun (rctx, r) ->
                  let v = unpack (P.imm_deref rctx r) in
                  if v <> obj.expected then failwith "final reader diverged";
                  P.drop_imm rctx r)
                obj.readers)
            objs;
          (* And the executable Appendix C audit must find no stale
             cache entries. *)
          (match P.audit cluster with
          | [] -> ()
          | v :: _ -> failwith ("audit: " ^ v));
          true))

(* Property: the colored global address always changes across write
   epochs (Global-Address-Change-on-Write). *)
let prop_address_changes_on_write =
  QCheck.Test.make ~name:"colored address changes on every write epoch" ~count:50
    QCheck.(list_of_size Gen.(1 -- 30) (pair small_int small_int))
    (fun script ->
      in_cluster ~nodes:3 (fun cluster ->
          let ctxs = Array.init 3 (fun n -> ctx_on cluster n) in
          let o = P.create ctxs.(0) ~size:32 (pack 0) in
          let ok = ref true in
          List.iter
            (fun (a, b) ->
              let node = abs a mod 3 in
              let before = P.gaddr o in
              (* Read first (starts a shared epoch), then write. *)
              let r = P.borrow_imm ctxs.(node) o in
              ignore (P.imm_deref ctxs.(node) r);
              P.drop_imm ctxs.(node) r;
              let m = P.borrow_mut ctxs.(abs b mod 3) o in
              P.mut_write ctxs.(abs b mod 3) m (pack (a + b));
              P.drop_mut ctxs.(abs b mod 3) m;
              if Gaddr.equal before (P.gaddr o) then ok := false)
            script;
          !ok))

let test_alloc_pressure_evicts_cache_first () =
  (* Fill a node's partition until allocation pressure; unreferenced cache
     copies must be reclaimed before spilling to another server. *)
  let params =
    { (small_params 2) with Params.mem_per_node = Drust_util.Units.kib 64 }
  in
  let cluster = Cluster.create params in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         let ctx0 = ctx_on cluster 0 in
         let ctx1 = ctx_on cluster 1 in
         (* A big object on node 1, read by node 0: ~32 KiB cached. *)
         let big = P.create_on ctx1 ~node:1 ~size:32768 (pack 1) in
         let r = P.borrow_imm ctx0 big in
         ignore (P.imm_deref ctx0 r);
         P.drop_imm ctx0 r;
         Alcotest.(check bool) "copy cached" true
           (Cache.used_bytes (Cluster.node cluster 0).Cluster.cache > 0);
         (* Now allocate from node 0 until its 64 KiB partition is tight:
            the allocator must evict the 32 KiB copy and stay local. *)
         let addrs = List.init 7 (fun i -> P.create ctx0 ~size:4096 (pack i)) in
         List.iter
           (fun o ->
             Alcotest.(check int) "stayed local" 0 (Gaddr.node_of (P.gaddr o)))
           addrs;
         ignore (P.create ctx0 ~size:30000 (pack 99));
         Alcotest.(check int) "cache evicted under pressure" 0
           (Cache.used_bytes (Cluster.node cluster 0).Cluster.cache)));
  Cluster.run cluster

let test_audit_clean_after_mixed_traffic () =
  in_cluster (fun cluster ->
      let ctxs = Array.init 4 (fun n -> ctx_on cluster n) in
      let objs =
        Array.init 8 (fun i -> P.create ctxs.(i mod 4) ~size:64 (pack i))
      in
      for round = 1 to 20 do
        Array.iteri
          (fun i o ->
            let ctx = ctxs.((i + round) mod 4) in
            let r = P.borrow_imm ctx o in
            ignore (P.imm_deref ctx r);
            P.drop_imm ctx r;
            let m = P.borrow_mut ctxs.((i + (2 * round)) mod 4) o in
            P.mut_write ctxs.((i + (2 * round)) mod 4) m (pack (round * 10));
            P.drop_mut ctxs.((i + (2 * round)) mod 4) m)
          objs
      done;
      Alcotest.(check (list string)) "no violations" [] (P.audit cluster))

(* Checks must not count: the audit probes every node's cache, and a
   probe that bumped cache.hits/cache.misses would inflate every number
   published after it. *)
let test_audit_counts_nothing () =
  in_cluster (fun cluster ->
      let ctxs = Array.init 4 (fun n -> ctx_on cluster n) in
      let objs = Array.init 8 (fun i -> P.create ctxs.(i mod 4) ~size:64 (pack i)) in
      Array.iteri
        (fun i o ->
          let ctx = ctxs.((i + 1) mod 4) in
          let r = P.borrow_imm ctx o in
          ignore (P.imm_deref ctx r);
          P.drop_imm ctx r)
        objs;
      Alcotest.(check bool) "copies cached" true
        (Cache.used_bytes (Cluster.node cluster 1).Cluster.cache > 0);
      let metrics = Cluster.metrics cluster in
      let before = Drust_obs.Metrics.snapshot metrics in
      Alcotest.(check (list string)) "no violations" [] (P.audit cluster);
      (* [compare], not [=]: an empty histogram's min/max are nan. *)
      Alcotest.(check bool) "snapshot unchanged by the audit" true
        (compare before (Drust_obs.Metrics.snapshot metrics) = 0))

let test_audit_detects_corruption () =
  in_cluster (fun cluster ->
      let ctx0 = ctx_on cluster 0 in
      let ctx1 = ctx_on cluster 1 in
      let o = P.create_on ctx0 ~node:0 ~size:64 (pack 1) in
      (* Cache a copy on node 1... *)
      let r = P.borrow_imm ctx1 o in
      ignore (P.imm_deref ctx1 r);
      P.drop_imm ctx1 r;
      (* ...then corrupt the heap behind the protocol's back (what a
         buggy unsafe block could do). *)
      Cluster.heap_write cluster (P.gaddr o) (pack 999);
      Alcotest.(check bool) "audit flags stale copy" true
        (P.audit cluster <> []))

let () =
  Alcotest.run "protocol"
    [
      ( "basics",
        [
          Alcotest.test_case "create/read" `Quick test_create_reads_back;
          Alcotest.test_case "local write bumps color" `Quick
            test_local_write_bumps_color_once;
          Alcotest.test_case "U bit reset on borrow" `Quick test_ubit_reset_on_imm_borrow;
          Alcotest.test_case "remote write moves" `Quick test_remote_write_moves_object;
          Alcotest.test_case "remote read caches" `Quick test_remote_read_caches;
          Alcotest.test_case "stale cache never read" `Quick
            test_stale_cache_not_read_after_write;
          Alcotest.test_case "concurrent readers" `Quick
            test_concurrent_readers_on_multiple_nodes;
          Alcotest.test_case "drop_mut writes back" `Quick
            test_drop_mut_writes_back_to_owner;
          Alcotest.test_case "mut read moves" `Quick test_mut_read_moves_too;
          Alcotest.test_case "borrow discipline" `Quick test_borrow_discipline_enforced;
          Alcotest.test_case "color overflow" `Slow test_color_overflow_moves;
          Alcotest.test_case "transfer evicts cache" `Quick
            test_transfer_evicts_source_cache;
          Alcotest.test_case "transfer while borrowed" `Quick
            test_transfer_while_borrowed_rejected;
          Alcotest.test_case "drop frees" `Quick test_drop_owner_frees;
          Alcotest.test_case "dropped owner raises" `Quick test_dropped_owner_matrix;
          Alcotest.test_case "dealloc invalidates caches" `Quick
            test_dealloc_invalidates_remote_caches;
          Alcotest.test_case "clone starts null" `Quick test_clone_imm_starts_null;
        ] );
      ( "read",
        [
          Alcotest.test_case "local = three calls" `Quick
            (test_read_matches_three_calls Local Flight.k_read_local);
          Alcotest.test_case "cached = three calls" `Quick
            (test_read_matches_three_calls Cached Flight.k_read_cached);
          Alcotest.test_case "fetch = three calls" `Quick
            (test_read_matches_three_calls Fetch Flight.k_read_fetch);
          Alcotest.test_case "violation holds nothing" `Quick
            test_read_violation_holds_nothing;
        ] );
      ( "owner read",
        [
          Alcotest.test_case "local" `Quick
            (test_owner_read_path O_local ~value:41
               ~events:[ "n0 t0 read local 8" ]
               ~kinds:[ "read_local" ] ~charged:"0x0p+0 s + 0x1.8bp+8 cycles"
               ~pinned:None ~color:1);
          Alcotest.test_case "held copy" `Quick
            (test_owner_read_path O_held ~value:41
               ~events:[ "n1 t1 read cache 8 key 8" ]
               ~kinds:[ "read_cached" ] ~charged:"0x0p+0 s + 0x1.2ep+7 cycles"
               ~pinned:(Some 1) ~color:1);
          (* The stale copy is released before the node cache is asked. *)
          Alcotest.test_case "stale held copy" `Quick
            (test_owner_read_path O_stale ~value:42
               ~events:
                 [
                   "n1 t-1 cache release 8 -> 0";
                   "n1 t-1 cache stale miss 140737488355336 cached 8";
                   "n1 t-1 cache invalidate 8";
                   "n1 t-1 cache insert 140737488355336 64";
                   "n1 t-1 cache invalidate 72";
                   "n1 t-1 cache insert 72 32";
                   "n1 t-1 cache release 72 -> 0";
                   "n1 t1 read fetch 140737488355336";
                 ]
               ~kinds:[ "read_fetch"; "fab_read" ]
               ~charged:"0x1.efa595fe55cdp-19 s + 0x0p+0 cycles"
               ~pinned:(Some 1) ~color:1);
          Alcotest.test_case "node-cache hit" `Quick
            (test_owner_read_path O_node_cache ~value:41
               ~events:[ "n1 t-1 cache hit 8"; "n1 t1 read cache 8 key 8" ]
               ~kinds:[ "read_cached" ] ~charged:"0x0p+0 s + 0x1.2ep+7 cycles"
               ~pinned:(Some 1) ~color:1);
          Alcotest.test_case "fetch" `Quick
            (test_owner_read_path O_fetch ~value:41
               ~events:
                 [
                   "n1 t-1 cache insert 8 64";
                   "n1 t-1 cache insert 72 32";
                   "n1 t-1 cache release 72 -> 0";
                   "n1 t1 read fetch 8";
                 ]
               ~kinds:[ "read_fetch"; "fab_read" ]
               ~charged:"0x1.f40f2dfbcab9cp-19 s + 0x0p+0 cycles"
               ~pinned:(Some 1) ~color:1);
          (* The read resets the U bit, so the follow-up write bumps the
             color a second time. *)
          Alcotest.test_case "pinned remote" `Quick
            (test_owner_read_path O_pinned ~value:42
               ~events:
                 [
                   "n1 t-1 cache insert 140737488355336 64";
                   "n1 t-1 cache insert 72 32";
                   "n1 t-1 cache release 72 -> 0";
                   "n1 t1 read fetch 140737488355336";
                 ]
               ~kinds:[ "read_fetch"; "fab_read" ]
               ~charged:"0x1.f40f2dfbcab9cp-19 s + 0x0p+0 cycles"
               ~pinned:(Some 1) ~color:2);
        ] );
      ( "affinity",
        [
          Alcotest.test_case "tie colocates" `Quick test_tie_colocates;
          Alcotest.test_case "group moves together" `Quick test_group_moves_together;
          Alcotest.test_case "group fetch seeds cache" `Quick test_group_fetch_seeds_cache;
          Alcotest.test_case "cycle rejected" `Quick test_tie_cycle_rejected;
          Alcotest.test_case "pinned never moves" `Quick test_pinned_never_moves;
          Alcotest.test_case "clone chains balance" `Quick test_clone_chains_balance;
          Alcotest.test_case "group size transitive" `Quick test_group_size_transitive;
          Alcotest.test_case "tie/pin interaction" `Quick test_tie_pinned_rejected;
        ] );
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest prop_data_value_invariant;
          QCheck_alcotest.to_alcotest prop_address_changes_on_write;
          Alcotest.test_case "alloc pressure evicts cache" `Quick
            test_alloc_pressure_evicts_cache_first;
          Alcotest.test_case "audit clean after traffic" `Quick
            test_audit_clean_after_mixed_traffic;
          Alcotest.test_case "audit detects corruption" `Quick
            test_audit_detects_corruption;
          Alcotest.test_case "audit counts nothing" `Quick
            test_audit_counts_nothing;
        ] );
    ]
