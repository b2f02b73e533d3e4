module Intmap = Drust_util.Intmap

type entry = { mutable value : Drust_util.Univ.t; size : int }

(* Size-class free lists: freed offsets are recycled for any request that
   fits the same class, which keeps the bump pointer from running away in
   long simulations with allocation churn.  Classes are powers of two
   from 16 bytes; [free_lists.(i)] holds the LIFO of freed offsets for
   class [16 lsl i] (the max offset is 2^40, so 40 slots cover every
   representable class). *)
type t = {
  node : int;
  capacity : int;
  objects : entry Intmap.t; (* keyed by color-less offset *)
  free_lists : int list array; (* class index -> freed offsets, LIFO *)
  mutable bump : int;
  mutable used : int;
}

exception Out_of_memory of { node : int; requested : int }

let create ~node ~capacity_bytes =
  if capacity_bytes <= 0 then invalid_arg "Partition.create: empty capacity";
  {
    node;
    capacity = capacity_bytes;
    objects = Intmap.create ~capacity:1024 ();
    free_lists = Array.make 48 [];
    bump = 8; (* offset 0 is reserved as a null-like sentinel *)
    used = 0;
  }

let node t = t.node
let capacity_bytes t = t.capacity
let used_bytes t = t.used
let usage_fraction t = Float.of_int t.used /. Float.of_int t.capacity

(* Round a request up to its size class (powers of two from 16 bytes),
   also yielding the free-list index for that class. *)
let size_class size =
  let rec up c = if c >= size then c else up (c * 2) in
  up 16

let class_index cls =
  let rec go c i = if c >= cls then i else go (c * 2) (i + 1) in
  go 16 0

let take_free t idx =
  match t.free_lists.(idx) with
  | off :: rest ->
      t.free_lists.(idx) <- rest;
      Some off
  | [] -> None

let alloc t ~size v =
  if size < 0 then invalid_arg "Partition.alloc: negative size";
  let cls = size_class (max 1 size) in
  if t.used + cls > t.capacity then
    raise (Out_of_memory { node = t.node; requested = size });
  let offset =
    match take_free t (class_index cls) with
    | Some off -> off
    | None ->
        let off = t.bump in
        t.bump <- t.bump + cls;
        if t.bump > Gaddr.max_offset then
          raise (Out_of_memory { node = t.node; requested = size });
        off
  in
  Intmap.set t.objects offset { value = v; size };
  t.used <- t.used + cls;
  Gaddr.make ~node:t.node ~offset

let check_home t a label =
  if Gaddr.node_of a <> t.node then
    invalid_arg
      (Printf.sprintf "Partition.%s: address on node %d, partition is node %d"
         label (Gaddr.node_of a) t.node)

let free t a =
  check_home t a "free";
  let off = Gaddr.offset_of a in
  match Intmap.find_opt t.objects off with
  | None -> invalid_arg "Partition.free: dead address"
  | Some e ->
      Intmap.remove t.objects off;
      let cls = size_class (max 1 e.size) in
      t.used <- t.used - cls;
      let idx = class_index cls in
      t.free_lists.(idx) <- off :: t.free_lists.(idx)

let get t a =
  check_home t a "get";
  Intmap.find t.objects (Gaddr.offset_of a)

let mem t a = Gaddr.node_of a = t.node && Intmap.mem t.objects (Gaddr.offset_of a)

let set t a v =
  check_home t a "set";
  match Intmap.find_opt t.objects (Gaddr.offset_of a) with
  | None -> invalid_arg "Partition.set: dead address"
  | Some e -> e.value <- v

let put t a ~size v =
  check_home t a "put";
  let off = Gaddr.offset_of a in
  let cls = size_class (max 1 size) in
  (match Intmap.find_opt t.objects off with
  | Some old -> t.used <- t.used - size_class (max 1 old.size)
  | None -> ());
  Intmap.set t.objects off { value = v; size };
  t.used <- t.used + cls;
  (* Keep the bump pointer ahead of mirrored offsets so that a promoted
     backup never mints an address that collides with a mirrored object. *)
  if off + cls > t.bump then t.bump <- off + cls

let iter t f =
  Intmap.iter (fun off e -> f (Gaddr.make ~node:t.node ~offset:off) e) t.objects
