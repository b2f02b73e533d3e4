module Cluster = Drust_machine.Cluster
module Engine = Drust_sim.Engine
module Gaddr = Drust_memory.Gaddr
module Tap = Drust_memory.Tap
module Metrics = Drust_obs.Metrics
module Flight = Drust_obs.Flight

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

type invariant =
  | Single_owner
  | Stale_cache_read
  | Move_invalidation
  | Refcount_sanity
  | Borrow_discipline
  | Lock_discipline
  | Promotion_uniqueness
  | Use_after_free
  | Epoch_monotonic
  | Handoff_atomicity
  | Replica_chain_intact

let invariant_name = function
  | Single_owner -> "dsan.single_owner"
  | Stale_cache_read -> "dsan.stale_cache_read"
  | Move_invalidation -> "dsan.move_invalidation"
  | Refcount_sanity -> "dsan.refcount_sanity"
  | Borrow_discipline -> "dsan.borrow_discipline"
  | Lock_discipline -> "dsan.lock_discipline"
  | Promotion_uniqueness -> "dsan.promotion_uniqueness"
  | Use_after_free -> "dsan.use_after_free"
  | Epoch_monotonic -> "dsan.epoch_monotonic"
  | Handoff_atomicity -> "dsan.handoff_atomicity"
  | Replica_chain_intact -> "dsan.replica_chain_intact"

let all_invariants =
  [
    Single_owner;
    Stale_cache_read;
    Move_invalidation;
    Refcount_sanity;
    Borrow_discipline;
    Lock_discipline;
    Promotion_uniqueness;
    Use_after_free;
    Epoch_monotonic;
    Handoff_atomicity;
    Replica_chain_intact;
  ]

let invariant_names = List.map invariant_name all_invariants

(* Dense index of an invariant — the [b] payload of a flight-recorder
   [dsan_violation] event. *)
let invariant_index inv =
  let rec go i = function
    | [] -> -1
    | x :: rest -> if x = inv then i else go (i + 1) rest
  in
  go 0 all_invariants

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type report = {
  invariant : invariant;
  time : float;
  node : int;
  thread : int;
  addr : int option;
  detail : string;
  provenance : string list;
}

let pp_report ppf r =
  Format.fprintf ppf "@[<v>DSan violation: %s@,  t=%.9fs  node %d%s%s@,  %s"
    (invariant_name r.invariant)
    r.time r.node
    (if r.thread >= 0 then Printf.sprintf "  thread %d" r.thread else "")
    (match r.addr with
    | None -> ""
    | Some a -> Format.asprintf "  addr %a" Gaddr.pp (Gaddr.of_int_exn a))
    r.detail;
  List.iter (fun l -> Format.fprintf ppf "@,    | %s" l) r.provenance;
  Format.fprintf ppf "@]"

let report_to_string r = Format.asprintf "%a" pp_report r

(* ------------------------------------------------------------------ *)
(* Shadow state                                                        *)
(* ------------------------------------------------------------------ *)

(* Per-entity event history: a bounded, newest-first list of raw tap
   events, formatted lazily only when a report is built. *)
type trace = {
  tr_time : float;
  tr_node : int;
  tr_thread : int;
  tr_ev : Tap.event;
}

type histo = { mutable h_items : trace list; mutable h_len : int }

let histo () = { h_items = []; h_len = 0 }

let hist_push h tr =
  h.h_items <- tr :: h.h_items;
  h.h_len <- h.h_len + 1;
  if h.h_len > 16 then begin
    let rec take n = function
      | [] -> []
      | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
    in
    h.h_items <- take 8 h.h_items;
    h.h_len <- 8
  end

(* The borrow automaton mirrored per physical address. *)
type status = Owned | Shared of int | Mut | Dead

type shadow = {
  mutable sh_color : int;
  mutable sh_size : int;
  mutable sh_status : status;
  mutable sh_box : int;  (* node holding the owner box *)
  mutable sh_home : int;  (* partition range the address lives in *)
  sh_copies : (int, int) Hashtbl.t;  (* node -> color the copy was fetched under *)
  sh_hist : histo;
}

type rc_shadow = {
  mutable rc_expected : int;
  mutable rc_freed : bool;
  rc_hist : histo;
}

type lock_shadow = { mutable lk_holder : int option; lk_hist : histo }

type t = {
  cluster : Cluster.t;
  shadows : (int, shadow) Hashtbl.t;
  rcs : (int, rc_shadow) Hashtbl.t;
  locks : (int, lock_shadow) Hashtbl.t;
  serving : int array;
  alive : bool array;
  (* Membership shadow: the highest view epoch observed, and the set of
     handoffs prepared but not yet committed/aborted, keyed by home. *)
  mutable last_epoch : int;
  pending_handoffs : (int, int * int) Hashtbl.t; (* home -> (from, to) *)
  mutable reports : report list;  (* newest first *)
  mutable report_count : int;
  counter : Metrics.counter;
  mutable active : bool;
}

let phys g = Gaddr.to_int (Gaddr.clear_color g)
let gstr g = Format.asprintf "%a" Gaddr.pp g

(* ------------------------------------------------------------------ *)
(* Trace formatting (lazy: only on violation)                          *)
(* ------------------------------------------------------------------ *)

let format_event : Tap.event -> string = function
  | Create { g; size } -> Printf.sprintf "create %s (%dB)" (gstr g) size
  | Read { g; path } -> (
      match path with
      | Path_local -> Printf.sprintf "read %s [local]" (gstr g)
      | Path_cache key ->
          Printf.sprintf "read %s [cache copy %s]" (gstr g) (gstr key)
      | Path_fetch -> Printf.sprintf "read %s [fetch]" (gstr g))
  | Write { before; after; size = _; kind } ->
      let k =
        match kind with
        | W_bump -> "bump"
        | W_move -> "move"
        | W_in_place -> "in-place"
      in
      Printf.sprintf "write(%s) %s -> %s" k (gstr before) (gstr after)
  | Borrow_imm { g } -> "borrow-imm " ^ gstr g
  | Return_imm { g } -> "return-imm " ^ gstr g
  | Borrow_mut { g } -> "borrow-mut " ^ gstr g
  | Return_mut { g } -> "return-mut " ^ gstr g
  | Transfer { g; to_node } ->
      Printf.sprintf "transfer %s -> node %d" (gstr g) to_node
  | Drop { g } -> "drop " ^ gstr g
  | App { g; verb; tag } -> Printf.sprintf "%s %s :%s" verb (gstr g) tag
  | Cache_hit { key } -> "cache hit " ^ gstr key
  | Cache_stale_miss { sought; cached } ->
      Printf.sprintf "cache stale-miss sought %s, held %s" (gstr sought)
        (gstr cached)
  | Cache_insert { key; size } ->
      Printf.sprintf "cache insert %s (%dB)" (gstr key) size
  | Cache_release { key; refcount } ->
      Printf.sprintf "cache release %s rc=%d" (gstr key) refcount
  | Cache_invalidate { key } -> "cache invalidate " ^ gstr key
  | Rc_created { g; size; count } ->
      Printf.sprintf "rc create %s (%dB) count=%d" (gstr g) size count
  | Rc_retained { g; count } ->
      Printf.sprintf "rc retain %s count=%d" (gstr g) count
  | Rc_released { g; count } ->
      Printf.sprintf "rc release %s count=%d" (gstr g) count
  | Rc_freed { g } -> "rc free " ^ gstr g
  | Lock_created { g } -> "lock create " ^ gstr g
  | Lock_acquired { g; thread } ->
      Printf.sprintf "lock acquire %s by thread %d" (gstr g) thread
  | Lock_released { g; thread } ->
      Printf.sprintf "lock release %s by thread %d" (gstr g) thread
  | Node_failed { node } -> Printf.sprintf "node %d failed" node
  | Promoted { home; by; replica } ->
      Printf.sprintf "range %d promoted to node %d (replica %d)" home by replica
  | View_change { epoch; reason } ->
      Printf.sprintf "view -> e%d (%s)" epoch reason
  | Handoff_prepared { home; from_node; to_node } ->
      Printf.sprintf "handoff prepare: range %d, %d -> %d" home from_node
        to_node
  | Handoff_committed { home; from_node; to_node; epoch } ->
      Printf.sprintf "handoff commit: range %d, %d -> %d (e%d)" home from_node
        to_node epoch
  | Handoff_aborted { home; from_node; to_node; reason } ->
      Printf.sprintf "handoff abort: range %d, %d -> %d (%s)" home from_node
        to_node reason
  | Chain_reseeded { home; server; hosts } ->
      Printf.sprintf "chain reseed: range %d on node %d, replicas [%s]" home
        server
        (String.concat "; " (List.map string_of_int hosts))

(* Protocol and refcount steps are attributed to their thread. *)
let format_trace tr =
  let body = format_event tr.tr_ev in
  let body =
    match tr.tr_ev with
    | Create _ | Read _ | Write _ | Borrow_imm _ | Return_imm _ | Borrow_mut _
    | Return_mut _ | Transfer _ | Drop _ | App _ | Rc_created _
    | Rc_retained _ | Rc_released _ | Rc_freed _ ->
        Printf.sprintf "thr %d: %s" tr.tr_thread body
    | Cache_hit _ | Cache_stale_miss _ | Cache_insert _ | Cache_release _
    | Cache_invalidate _ | Lock_created _ | Lock_acquired _ | Lock_released _
    | Node_failed _ | Promoted _ | View_change _ | Handoff_prepared _
    | Handoff_committed _ | Handoff_aborted _ | Chain_reseeded _ ->
        body
  in
  Printf.sprintf "t=%.9f node %d: %s" tr.tr_time tr.tr_node body

(* ------------------------------------------------------------------ *)
(* Violation machinery                                                 *)
(* ------------------------------------------------------------------ *)

(* The last six fabric verbs issued anywhere in the cluster, read from
   the flight recorder's live rings. *)
let fabric_lines t =
  Flight.recent (Cluster.flight t.cluster) ~n:6 ~kinds:(fun k ->
      k >= Flight.k_fab_read && k <= Flight.k_fab_send)
  |> List.map (Format.asprintf "%a" Flight.pp_event)

let violate t inv ~time ~node ~thread ~addr ~detail hist =
  t.report_count <- t.report_count + 1;
  Metrics.incr t.counter;
  let prov =
    (match hist with
    | None -> []
    | Some h -> List.rev_map format_trace h.h_items)
    @ fabric_lines t
  in
  let r =
    { invariant = inv; time; node; thread; addr; detail; provenance = prov }
  in
  if t.report_count <= 1000 then t.reports <- r :: t.reports;
  (* A violation is the canonical dump trigger: land the event on the
     offending node's ring, then write the black box out while the ring
     tail still explains the failure (docs/FORENSICS.md). *)
  let fl = Cluster.flight t.cluster in
  Flight.record fl ~node ~time ~kind:Flight.k_dsan_violation
    ~a:(match addr with Some a -> a | None -> -1)
    ~b:(invariant_index inv) ~c:thread ~d:0;
  ignore
    (Flight.auto_dump fl
       ~reason:(invariant_name inv ^ ": " ^ detail)
       ?object_:addr ~now:time ())

let fresh_shadow ~color ~size ~box ~home =
  {
    sh_color = color;
    sh_size = size;
    sh_status = Owned;
    sh_box = box;
    sh_home = home;
    sh_copies = Hashtbl.create 4;
    sh_hist = histo ();
  }

let fresh_lock () = { lk_holder = None; lk_hist = histo () }

(* Shared by failover promotion and planned handoff commit: once a range
   changes server, no alive cache may still hold a copy of it — a lagging
   replica (failover) or the old server's image (handoff) would otherwise
   keep serving superseded values under still-current colors. *)
let check_range_purged t ~time ~node ~why ~home tr =
  (* Address-sorted so any violation report lists objects in a stable
     order, not the shadow table's bucket order. *)
  List.iter
    (fun (p, sh) ->
      if sh.sh_home = home && sh.sh_status <> Dead then begin
        let survivors =
          Drust_util.Tables.sorted_keys sh.sh_copies ~cmp:Int.compare
          |> List.filter (fun n -> n < Array.length t.alive && t.alive.(n))
        in
        if survivors <> [] then begin
          violate t Move_invalidation ~time ~node ~thread:(-1) ~addr:(Some p)
            ~detail:
              (Printf.sprintf
                 "cached copies of range %d survived %s on node(s) %s" home why
                 (String.concat ", " (List.map string_of_int survivors)))
            (Some sh.sh_hist);
          hist_push sh.sh_hist tr
        end
      end)
    (Drust_util.Tables.sorted_bindings t.shadows ~cmp:Int.compare)

(* ------------------------------------------------------------------ *)
(* Observation: one step of the shadow per tap event                   *)
(* ------------------------------------------------------------------ *)

let observe t ~time ~node ~thread (ev : Tap.event) =
  let tr = { tr_time = time; tr_node = node; tr_thread = thread; tr_ev = ev } in
  let viol inv ~addr detail hist =
    violate t inv ~time ~node ~thread ~addr ~detail hist
  in
  (* A protocol step on an address's live shadow (untracked addresses
     were created before attach and are ignored). *)
  let on_shadow g step =
    let p = phys g in
    match Hashtbl.find_opt t.shadows p with
    | None -> ()
    | Some sh ->
        step p sh;
        hist_push sh.sh_hist tr
  in
  (* A cache step, recorded on the copied object's shadow if tracked. *)
  let on_copy key step =
    let p = phys key in
    let sh = Hashtbl.find_opt t.shadows p in
    step p sh;
    match sh with Some s -> hist_push s.sh_hist tr | None -> ()
  in
  let hist_of sh = Option.map (fun s -> s.sh_hist) sh in
  let rc_step g step =
    let p = phys g in
    step p (Hashtbl.find_opt t.rcs p)
  in
  let member_viol inv detail = viol inv ~addr:None detail None in
  let check_epoch epoch =
    if epoch <= t.last_epoch then
      member_viol Epoch_monotonic
        (Printf.sprintf
           "view epoch moved backwards or repeated: saw e%d after e%d" epoch
           t.last_epoch)
    else t.last_epoch <- epoch
  in
  let alive n = n >= 0 && n < Array.length t.alive && t.alive.(n) in
  match ev with
  (* ---- protocol ---- *)
  | Create { g; size } ->
      let p = phys g in
      (match Hashtbl.find_opt t.shadows p with
      | Some sh when sh.sh_status <> Dead ->
          viol Single_owner ~addr:(Some p)
            (Printf.sprintf
               "second owner registered at %s while the address is live"
               (gstr g))
            (Some sh.sh_hist)
      | _ -> ());
      let sh =
        fresh_shadow ~color:(Gaddr.color_of g) ~size ~box:node
          ~home:(Gaddr.node_of g)
      in
      Hashtbl.replace t.shadows p sh;
      hist_push sh.sh_hist tr
  | Read { g; path } ->
      on_shadow g (fun p sh ->
          if sh.sh_status = Dead then
            viol Use_after_free ~addr:(Some p)
              (Printf.sprintf "read of dropped object %s" (gstr g))
              (Some sh.sh_hist)
          else begin
            (match sh.sh_status with
            | Mut ->
                viol Borrow_discipline ~addr:(Some p)
                  (Printf.sprintf "read of %s while mutably borrowed" (gstr g))
                  (Some sh.sh_hist)
            | _ -> ());
            match path with
            | Path_cache key ->
                if Gaddr.color_of key <> sh.sh_color then
                  viol Stale_cache_read ~addr:(Some p)
                    (Printf.sprintf
                       "read served from cached copy %s but the current \
                        colored address is c%d"
                       (gstr key) sh.sh_color)
                    (Some sh.sh_hist)
            | Path_local ->
                if Gaddr.color_of g <> sh.sh_color then
                  viol Stale_cache_read ~addr:(Some p)
                    (Printf.sprintf
                       "local read through stale address %s (current color \
                        c%d)"
                       (gstr g) sh.sh_color)
                    (Some sh.sh_hist)
            | Path_fetch ->
                (* fetch completion is emitted after a fabric round-trip,
                   so the color may legally have advanced meanwhile *)
                ()
          end)
  | Write { before; after; size; kind } -> (
      let pb = phys before and pa = phys after in
      match Hashtbl.find_opt t.shadows pb with
      | None ->
          (* lineage unknown (created before attach): start tracking *)
          let sh =
            fresh_shadow ~color:(Gaddr.color_of after) ~size ~box:node
              ~home:(Gaddr.node_of after)
          in
          Hashtbl.replace t.shadows pa sh;
          hist_push sh.sh_hist tr
      | Some sh ->
          (match sh.sh_status with
          | Dead ->
              viol Use_after_free ~addr:(Some pb)
                (Printf.sprintf "write to dropped object %s" (gstr before))
                (Some sh.sh_hist)
          | Shared n ->
              viol Borrow_discipline ~addr:(Some pb)
                (Printf.sprintf
                   "write to %s while %d immutable borrow(s) outstanding"
                   (gstr before) n)
                (Some sh.sh_hist)
          | Owned | Mut -> ());
          (match kind with
          | W_in_place ->
              let reachable =
                Drust_util.Tables.sorted_bindings sh.sh_copies ~cmp:Int.compare
                |> List.filter_map (fun (n, c) ->
                       if c = sh.sh_color then Some n else None)
              in
              if reachable <> [] then
                viol Move_invalidation ~addr:(Some pb)
                  (Printf.sprintf
                     "in-place write at %s with cached copies still reachable \
                      under the current color on node(s) %s — a move or \
                      color bump must make prior copies unreachable before \
                      the value changes"
                     (gstr after)
                     (String.concat ", "
                        (List.map string_of_int reachable)))
                  (Some sh.sh_hist)
          | W_bump ->
              sh.sh_color <- Gaddr.color_of after;
              sh.sh_size <- size
          | W_move ->
              Hashtbl.remove t.shadows pb;
              (match Hashtbl.find_opt t.shadows pa with
              | Some other when other.sh_status <> Dead ->
                  viol Single_owner ~addr:(Some pa)
                    (Printf.sprintf "move of %s onto live address %s"
                       (gstr before) (gstr after))
                    (Some other.sh_hist)
              | _ -> ());
              (* the old address's copies belong to a dead lineage now;
                 their invalidations will no-op against this shadow *)
              Hashtbl.reset sh.sh_copies;
              sh.sh_color <- Gaddr.color_of after;
              sh.sh_size <- size;
              sh.sh_home <- Gaddr.node_of after;
              Hashtbl.replace t.shadows pa sh);
          hist_push sh.sh_hist tr)
  | Borrow_imm { g } ->
      on_shadow g (fun p sh ->
          match sh.sh_status with
          | Dead ->
              viol Use_after_free ~addr:(Some p)
                (Printf.sprintf "immutable borrow of dropped object %s"
                   (gstr g))
                (Some sh.sh_hist)
          | Mut ->
              viol Borrow_discipline ~addr:(Some p)
                (Printf.sprintf
                   "immutable borrow of %s while mutably borrowed" (gstr g))
                (Some sh.sh_hist)
          | Owned -> sh.sh_status <- Shared 1
          | Shared n -> sh.sh_status <- Shared (n + 1))
  | Return_imm { g } ->
      on_shadow g (fun p sh ->
          match sh.sh_status with
          | Shared 1 -> sh.sh_status <- Owned
          | Shared n -> sh.sh_status <- Shared (n - 1)
          | Dead ->
              viol Use_after_free ~addr:(Some p)
                (Printf.sprintf "immutable return on dropped object %s"
                   (gstr g))
                (Some sh.sh_hist)
          | Owned | Mut ->
              viol Borrow_discipline ~addr:(Some p)
                (Printf.sprintf "unbalanced immutable return on %s" (gstr g))
                (Some sh.sh_hist))
  | Borrow_mut { g } ->
      on_shadow g (fun p sh ->
          match sh.sh_status with
          | Dead ->
              viol Use_after_free ~addr:(Some p)
                (Printf.sprintf "mutable borrow of dropped object %s" (gstr g))
                (Some sh.sh_hist)
          | Shared n ->
              viol Borrow_discipline ~addr:(Some p)
                (Printf.sprintf
                   "mutable borrow of %s while %d immutable borrow(s) \
                    outstanding"
                   (gstr g) n)
                (Some sh.sh_hist)
          | Mut ->
              viol Borrow_discipline ~addr:(Some p)
                (Printf.sprintf "second mutable borrow of %s" (gstr g))
                (Some sh.sh_hist)
          | Owned -> sh.sh_status <- Mut)
  | Return_mut { g } ->
      on_shadow g (fun p sh ->
          match sh.sh_status with
          | Mut -> sh.sh_status <- Owned
          | Dead ->
              viol Use_after_free ~addr:(Some p)
                (Printf.sprintf "mutable return on dropped object %s" (gstr g))
                (Some sh.sh_hist)
          | Owned | Shared _ ->
              viol Borrow_discipline ~addr:(Some p)
                (Printf.sprintf "unbalanced mutable return on %s" (gstr g))
                (Some sh.sh_hist))
  | Transfer { g; to_node } ->
      on_shadow g (fun p sh ->
          (match sh.sh_status with
          | Dead ->
              viol Use_after_free ~addr:(Some p)
                (Printf.sprintf "ownership transfer of dropped object %s"
                   (gstr g))
                (Some sh.sh_hist)
          | Shared _ | Mut ->
              viol Borrow_discipline ~addr:(Some p)
                (Printf.sprintf "ownership transfer of %s while borrowed"
                   (gstr g))
                (Some sh.sh_hist)
          | Owned -> ());
          sh.sh_box <- to_node)
  | Drop { g } ->
      on_shadow g (fun p sh ->
          (match sh.sh_status with
          | Dead ->
              viol Use_after_free ~addr:(Some p)
                (Printf.sprintf "double drop of %s" (gstr g))
                (Some sh.sh_hist)
          | Shared _ | Mut ->
              viol Borrow_discipline ~addr:(Some p)
                (Printf.sprintf "drop of %s while borrowed" (gstr g))
                (Some sh.sh_hist)
          | Owned -> ());
          sh.sh_status <- Dead)
  | App { g; _ } -> on_shadow g (fun _ _ -> ())
  (* ---- caches ---- *)
  | Cache_hit { key } ->
      on_copy key (fun p sh ->
          match sh with
          | Some s when s.sh_status <> Dead && Gaddr.color_of key <> s.sh_color
            ->
              viol Stale_cache_read ~addr:(Some p)
                (Printf.sprintf
                   "cache on node %d served a hit for %s whose color is stale \
                    (current c%d)"
                   node (gstr key) s.sh_color)
                (hist_of sh)
          | _ -> ())
  | Cache_stale_miss { sought; _ } -> on_copy sought (fun _ _ -> ())
  | Cache_insert { key; _ } ->
      on_copy key (fun _ sh ->
          match sh with
          | Some s when s.sh_status <> Dead ->
              Hashtbl.replace s.sh_copies node (Gaddr.color_of key)
          | _ -> ())
  | Cache_release { key; refcount } ->
      on_copy key (fun p sh ->
          if refcount < 0 then
            viol Refcount_sanity ~addr:(Some p)
              (Printf.sprintf
                 "cache copy pin count underflow on node %d (rc=%d)" node
                 refcount)
              (hist_of sh))
  | Cache_invalidate { key } ->
      on_copy key (fun _ sh ->
          match sh with Some s -> Hashtbl.remove s.sh_copies node | None -> ())
  (* ---- refcounts (darc) ---- *)
  | Rc_created { g; count; _ } ->
      rc_step g (fun p rc ->
          if count <> 1 then
            viol Refcount_sanity ~addr:(Some p)
              (Printf.sprintf "refcounted cell %s created with count %d, not 1"
                 (gstr g) count)
              (Option.map (fun r -> r.rc_hist) rc);
          let r =
            { rc_expected = count; rc_freed = false; rc_hist = histo () }
          in
          Hashtbl.replace t.rcs p r;
          hist_push r.rc_hist tr)
  | Rc_retained { g; count } ->
      rc_step g (fun p rc ->
          match rc with
          | None ->
              let r =
                { rc_expected = count; rc_freed = false; rc_hist = histo () }
              in
              Hashtbl.replace t.rcs p r;
              hist_push r.rc_hist tr
          | Some r ->
              if r.rc_freed then
                viol Use_after_free ~addr:(Some p)
                  (Printf.sprintf "retain of freed cell %s" (gstr g))
                  (Some r.rc_hist)
              else begin
                r.rc_expected <- r.rc_expected + 1;
                if count <> r.rc_expected then begin
                  viol Refcount_sanity ~addr:(Some p)
                    (Printf.sprintf
                       "refcount diverged on retain of %s: implementation \
                        says %d, shadow says %d"
                       (gstr g) count r.rc_expected)
                    (Some r.rc_hist);
                  r.rc_expected <- count
                end
              end;
              hist_push r.rc_hist tr)
  | Rc_released { g; count } ->
      rc_step g (fun p rc ->
          match rc with
          | None -> ()
          | Some r ->
              if r.rc_freed then
                viol Use_after_free ~addr:(Some p)
                  (Printf.sprintf "release of freed cell %s" (gstr g))
                  (Some r.rc_hist)
              else begin
                r.rc_expected <- r.rc_expected - 1;
                if count <> r.rc_expected then begin
                  viol Refcount_sanity ~addr:(Some p)
                    (Printf.sprintf
                       "refcount diverged on release of %s: implementation \
                        says %d, shadow says %d"
                       (gstr g) count r.rc_expected)
                    (Some r.rc_hist);
                  r.rc_expected <- count
                end;
                if r.rc_expected < 0 then
                  viol Refcount_sanity ~addr:(Some p)
                    (Printf.sprintf "refcount of %s went negative (%d)" (gstr g)
                       r.rc_expected)
                    (Some r.rc_hist)
              end;
              hist_push r.rc_hist tr)
  | Rc_freed { g } ->
      rc_step g (fun p rc ->
          match rc with
          | None -> ()
          | Some r ->
              if r.rc_freed then
                viol Use_after_free ~addr:(Some p)
                  (Printf.sprintf "double free of cell %s" (gstr g))
                  (Some r.rc_hist)
              else begin
                if r.rc_expected <> 0 then
                  viol Refcount_sanity ~addr:(Some p)
                    (Printf.sprintf "cell %s freed with nonzero refcount (%d)"
                       (gstr g) r.rc_expected)
                    (Some r.rc_hist);
                r.rc_freed <- true
              end;
              hist_push r.rc_hist tr)
  (* ---- locks ---- *)
  | Lock_created { g } ->
      let l = fresh_lock () in
      Hashtbl.replace t.locks (phys g) l;
      hist_push l.lk_hist tr
  | Lock_acquired { g; thread = th } ->
      let p = phys g in
      let l =
        match Hashtbl.find_opt t.locks p with
        | Some l -> l
        | None ->
            let l = fresh_lock () in
            Hashtbl.replace t.locks p l;
            l
      in
      (match l.lk_holder with
      | Some h ->
          viol Lock_discipline ~addr:(Some p)
            (Printf.sprintf
               "lock %s granted to thread %d while held by thread %d" (gstr g)
               th h)
            (Some l.lk_hist)
      | None -> ());
      l.lk_holder <- Some th;
      hist_push l.lk_hist tr
  | Lock_released { g; thread = th } -> (
      let p = phys g in
      match Hashtbl.find_opt t.locks p with
      | None -> ()
      | Some l ->
          (match l.lk_holder with
          | Some h when h = th -> l.lk_holder <- None
          | Some h ->
              viol Lock_discipline ~addr:(Some p)
                (Printf.sprintf
                   "lock %s released by thread %d but held by thread %d"
                   (gstr g) th h)
                (Some l.lk_hist)
          | None ->
              viol Lock_discipline ~addr:(Some p)
                (Printf.sprintf "lock %s released by thread %d while unheld"
                   (gstr g) th)
                (Some l.lk_hist));
          hist_push l.lk_hist tr)
  (* ---- failover ---- *)
  | Node_failed { node = n } ->
      if n >= 0 && n < Array.length t.alive then t.alive.(n) <- false
  | Promoted { home; by; replica = _ } ->
      let cur = if home < Array.length t.serving then t.serving.(home) else by in
      if cur < Array.length t.alive && t.alive.(cur) then
        member_viol Promotion_uniqueness
          (Printf.sprintf
             "range %d promoted to node %d while node %d still serves it \
              alive"
             home by cur);
      if by < Array.length t.alive && not t.alive.(by) then
        member_viol Promotion_uniqueness
          (Printf.sprintf "range %d promoted to dead node %d" home by);
      (* A failover promotion may race a planned handoff of the same
         range (server died mid-transfer): the coordinator aborts its
         side when the copy fails, and the prepare record is cleared
         here.  Both endpoints still being alive means the promotion had
         no business pre-empting the handoff. *)
      (match Hashtbl.find_opt t.pending_handoffs home with
      | Some (f, to_) ->
          if
            f < Array.length t.alive && t.alive.(f)
            && to_ < Array.length t.alive
            && t.alive.(to_)
          then
            member_viol Handoff_atomicity
              (Printf.sprintf
                 "failover promotion of range %d raced a live handoff %d -> %d"
                 home f to_);
          Hashtbl.remove t.pending_handoffs home
      | None -> ());
      if home < Array.length t.serving then t.serving.(home) <- by;
      (* After a promotion the surviving caches must hold no copy of the
         promoted range: the replica may lag the lost primary, so those
         copies can carry rolled-back values under still-current colors. *)
      check_range_purged t ~time ~node ~why:"failover" ~home tr
  (* ---- membership ---- *)
  | View_change { epoch; reason = _ } -> check_epoch epoch
  | Handoff_prepared { home; from_node; to_node } ->
      if Hashtbl.mem t.pending_handoffs home then
        member_viol Handoff_atomicity
          (Printf.sprintf
             "second handoff of range %d prepared while one is in flight" home);
      if home < Array.length t.serving && t.serving.(home) <> from_node then
        member_viol Handoff_atomicity
          (Printf.sprintf
             "handoff of range %d prepared from node %d, but node %d serves it"
             home from_node t.serving.(home));
      if not (alive to_node) then
        member_viol Handoff_atomicity
          (Printf.sprintf "handoff of range %d prepared toward dead node %d"
             home to_node);
      Hashtbl.replace t.pending_handoffs home (from_node, to_node)
  | Handoff_committed { home; from_node; to_node; epoch } ->
      (match Hashtbl.find_opt t.pending_handoffs home with
      | None ->
          member_viol Handoff_atomicity
            (Printf.sprintf "handoff of range %d committed without a prepare"
               home)
      | Some (f, to_) ->
          if f <> from_node || to_ <> to_node then
            member_viol Handoff_atomicity
              (Printf.sprintf
                 "handoff commit of range %d (%d -> %d) does not match its \
                  prepare (%d -> %d)"
                 home from_node to_node f to_));
      Hashtbl.remove t.pending_handoffs home;
      (* The serving swap must be a single step from the preparing server
         to the target: anything else means a window with zero or two
         servers for the range. *)
      if home < Array.length t.serving && t.serving.(home) <> from_node then
        member_viol Handoff_atomicity
          (Printf.sprintf
             "handoff commit of range %d from node %d, but node %d serves it \
              — the range had two servers"
             home from_node t.serving.(home));
      if not (alive to_node) then
        member_viol Handoff_atomicity
          (Printf.sprintf "range %d handed off to dead node %d — the range \
                           has zero servers"
             home to_node);
      if home < Array.length t.serving then t.serving.(home) <- to_node;
      check_epoch epoch;
      check_range_purged t ~time ~node ~why:"handoff" ~home tr
  | Handoff_aborted { home; from_node; to_node; reason = _ } -> (
      (* No pending record is legal: a failover promotion that raced the
         crash may have cleared it already. *)
      match Hashtbl.find_opt t.pending_handoffs home with
      | None -> ()
      | Some (f, to_) ->
          if f <> from_node || to_ <> to_node then
            member_viol Handoff_atomicity
              (Printf.sprintf
                 "handoff abort of range %d (%d -> %d) does not match its \
                  prepare (%d -> %d)"
                 home from_node to_node f to_);
          Hashtbl.remove t.pending_handoffs home)
  | Chain_reseeded { home; server; hosts } ->
      if hosts = [] then
        member_viol Replica_chain_intact
          (Printf.sprintf
             "range %d has no alive replica host after reseeding" home);
      let seen = Hashtbl.create 4 in
      List.iter
        (fun h ->
          if Hashtbl.mem seen h then
            member_viol Replica_chain_intact
              (Printf.sprintf
                 "range %d reseeded twice onto the same host %d" home h);
          Hashtbl.replace seen h ();
          if not (alive h) then
            member_viol Replica_chain_intact
              (Printf.sprintf "range %d reseeded onto dead node %d" home h);
          if h = server then
            member_viol Replica_chain_intact
              (Printf.sprintf
                 "range %d replica co-located with its server %d" home h))
        hosts;
      if home < Array.length t.serving && t.serving.(home) <> server then
        member_viol Replica_chain_intact
          (Printf.sprintf
             "range %d reseeded around server %d, but node %d serves it" home
             server t.serving.(home))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let attach cluster =
  let n = Cluster.node_count cluster in
  let t =
    {
      cluster;
      shadows = Hashtbl.create 1024;
      rcs = Hashtbl.create 64;
      locks = Hashtbl.create 16;
      serving = Array.init n (Cluster.serving_node cluster);
      alive = Array.map (fun nd -> nd.Cluster.alive) (Cluster.nodes cluster);
      last_epoch = 0;
      pending_handoffs = Hashtbl.create 4;
      reports = [];
      report_count = 0;
      counter =
        Metrics.counter (Cluster.metrics cluster) "dsan.violations";
      active = true;
    }
  in
  let engine = Cluster.engine cluster in
  Tap.set (Cluster.tap cluster)
    (Some
       (fun ~node ~thread ev ->
         observe t ~time:(Engine.now engine) ~node ~thread ev));
  t

let detach t =
  if t.active then begin
    t.active <- false;
    Tap.set (Cluster.tap t.cluster) None
  end

let violations t = List.rev t.reports
let violation_count t = t.report_count

(* The auto-attach list is the one deliberate process-global here: it
   spans clusters by design.  The mutex makes it safe to create clusters
   from parallel sweep domains. *)
let auto : t list ref =
  ref []
[@@dlint.allow
  "globals: install_global attaches one sanitizer per future cluster — \
   cross-cluster by design, mutex-protected"]
let auto_mutex = Mutex.create ()

let install_global () =
  Cluster.set_create_hook
    (Some
       (fun c ->
         let t = attach c in
         Mutex.protect auto_mutex (fun () -> auto := t :: !auto)))

let attached () = Mutex.protect auto_mutex (fun () -> List.rev !auto)

let print_verdict ~clean ~clusters ~total reports =
  if total = 0 then
    Printf.fprintf clean
      "DSan: no invariant violations (%d cluster(s) checked)\n" clusters
  else begin
    List.iter prerr_endline reports;
    Printf.eprintf "DSan: %d invariant violation(s)\n" total
  end;
  total

let report_attached ~clean =
  let attached = attached () in
  print_verdict ~clean ~clusters:(List.length attached)
    ~total:(List.fold_left (fun acc t -> acc + violation_count t) 0 attached)
    (List.concat_map
       (fun t -> List.map report_to_string (violations t))
       attached)
