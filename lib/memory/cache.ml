type copy = {
  key : Gaddr.t;
  mutable value : Drust_util.Univ.t;
  size : int;
  mutable refcount : int;
  mutable dead : bool;
  mutable detached : bool;
}

module Metrics = Drust_obs.Metrics

type t = {
  node : int;
  (* Keyed by the physical (color-cleared) address; the copy remembers the
     full colored key so lookups can compare colors in O(1). *)
  map : copy Drust_util.Intmap.t;
  mutable used : int;
  (* The cluster's observation tap; cache events carry no thread. *)
  tap : Tap.t;
  (* Registry-backed statistics (names cache.*, labelled by node). *)
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_inserts : Metrics.counter;
  c_evictions : Metrics.counter;
  g_used : Metrics.gauge;
}

let create ?metrics ?tap ~node () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let labels = [ ("node", string_of_int node) ] in
  {
    node;
    map = Drust_util.Intmap.create ~capacity:256 ();
    used = 0;
    tap = (match tap with Some t -> t | None -> Tap.create ());
    c_hits = Metrics.counter metrics ~labels ~unit_:"ops" "cache.hits";
    c_misses = Metrics.counter metrics ~labels ~unit_:"ops" "cache.misses";
    c_inserts = Metrics.counter metrics ~labels ~unit_:"ops" "cache.inserts";
    c_evictions =
      Metrics.counter metrics ~labels ~unit_:"ops" "cache.evictions";
    g_used = Metrics.gauge metrics ~labels ~unit_:"bytes" "cache.used_bytes";
  }

let used_bytes t = t.used
let set_used t used =
  t.used <- used;
  Metrics.set t.g_used (float_of_int used)

let find t g =
  match Drust_util.Intmap.find t.map (Gaddr.to_int (Gaddr.clear_color g)) with
  | copy when Gaddr.equal copy.key g && not copy.dead ->
      Metrics.incr t.c_hits;
      (match t.tap.sub with
      | None -> ()
      | Some f -> f ~node:t.node ~thread:(-1) (Cache_hit { key = copy.key }));
      copy
  | copy ->
      Metrics.incr t.c_misses;
      (match t.tap.sub with
      | None -> ()
      | Some f ->
          f ~node:t.node ~thread:(-1)
            (Cache_stale_miss { sought = g; cached = copy.key }));
      raise_notrace Not_found
  | exception Not_found ->
      Metrics.incr t.c_misses;
      raise_notrace Not_found

let lookup t g =
  match find t g with copy -> Some copy | exception Not_found -> None

let peek t g =
  match Drust_util.Intmap.find_opt t.map (Gaddr.to_int (Gaddr.clear_color g)) with
  | Some copy when Gaddr.equal copy.key g && not copy.dead -> Some copy
  | Some _ | None -> None

let reclaim t copy =
  if not copy.dead then begin
    copy.dead <- true;
    set_used t (t.used - copy.size)
  end

(* Remove a copy from the map.  If references still pin it they keep
   reading through their direct record; the bytes are reclaimed when the
   last reference drains ([release]). *)
let detach t phys copy =
  Drust_util.Intmap.remove t.map phys;
  copy.detached <- true;
  (match t.tap.sub with
  | None -> ()
  | Some f ->
      f ~node:t.node ~thread:(-1) (Cache_invalidate { key = copy.key }));
  if copy.refcount = 0 then reclaim t copy

let insert t g ~size v =
  let phys = Gaddr.to_int (Gaddr.clear_color g) in
  (match Drust_util.Intmap.find t.map phys with
  | old -> detach t phys old
  | exception Not_found -> ());
  let copy =
    { key = g; value = v; size; refcount = 1; dead = false; detached = false }
  in
  Drust_util.Intmap.set t.map phys copy;
  Metrics.incr t.c_inserts;
  set_used t (t.used + size);
  (match t.tap.sub with
  | None -> ()
  | Some f -> f ~node:t.node ~thread:(-1) (Cache_insert { key = g; size }));
  copy

let retain copy =
  if copy.dead then invalid_arg "Cache.retain: dead copy";
  copy.refcount <- copy.refcount + 1

let release t copy =
  (* The event carries the post-decrement count and fires before the
     underflow guard, so a shadow checker observes the violation even
     though the operation itself is then rejected. *)
  (match t.tap.sub with
  | None -> ()
  | Some f ->
      f ~node:t.node ~thread:(-1)
        (Cache_release { key = copy.key; refcount = copy.refcount - 1 }));
  if copy.refcount <= 0 then invalid_arg "Cache.release: refcount underflow";
  copy.refcount <- copy.refcount - 1;
  if copy.refcount = 0 && copy.detached then reclaim t copy

let invalidate_physical t g =
  let phys = Gaddr.to_int (Gaddr.clear_color g) in
  match Drust_util.Intmap.find t.map phys with
  | copy -> detach t phys copy
  | exception Not_found -> ()

(* Drop every copy of an object homed in [home]'s address range, whatever
   its color.  Used by failover promotion: the promoted replica may lag the
   lost primary (asynchronous batching), so copies fetched from the primary
   can hold values the promoted store never received — they must not keep
   serving reads under a still-current colored address. *)
let invalidate_home t ~home =
  let victims =
    Drust_util.Intmap.fold
      (fun phys copy acc ->
        if Gaddr.node_of copy.key = home then (phys, copy) :: acc else acc)
      t.map []
  in
  List.iter (fun (phys, copy) -> detach t phys copy) victims;
  List.length victims

let evict_unreferenced t =
  let reclaimed = ref 0 in
  let victims =
    Drust_util.Intmap.fold
      (fun phys copy acc -> if copy.refcount = 0 then (phys, copy) :: acc else acc)
      t.map []
  in
  let kill (phys, copy) =
    reclaimed := !reclaimed + copy.size;
    Metrics.incr t.c_evictions;
    detach t phys copy
  in
  List.iter kill victims;
  !reclaimed

