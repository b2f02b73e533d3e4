module Intmap = Drust_util.Intmap

type entry = { mutable value : Drust_util.Univ.t; size : int }

(* Size-class free lists: freed offsets are recycled for any request that
   fits the same class, which keeps the bump pointer from running away in
   long simulations with allocation churn.  Classes are powers of two
   from 16 bytes; [free_offs.(i)] is the LIFO stack of freed offsets for
   class [16 lsl i], its first [free_len.(i)] cells live (the max offset
   is 2^40, so 40 slots cover every representable class).  A flat int
   stack, not a list: a free pushes without allocating a cell. *)
type t = {
  node : int;
  capacity : int;
  objects : entry Intmap.t; (* keyed by color-less offset *)
  free_offs : int array array; (* class index -> freed offsets, LIFO *)
  free_len : int array; (* class index -> live cells of [free_offs] *)
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
    free_offs = Array.make 48 [||];
    free_len = Array.make 48 0;
    bump = 8; (* offset 0 is reserved as a null-like sentinel *)
    used = 0;
  }

let node t = t.node
let capacity_bytes t = t.capacity
let used_bytes t = t.used
let usage_fraction t = Float.of_int t.used /. Float.of_int t.capacity

(* The size class of a request (powers of two from 16 bytes) as its
   free-list index: the smallest [i] with [16 lsl i >= size].  A loop,
   not a local recursive function, which would be a closure allocated
   on every call (docs/PERFORMANCE.md). *)
let class_index size =
  let i = ref 0 in
  while 16 lsl !i < size do
    incr i
  done;
  !i

let[@inline] class_bytes idx = 16 lsl idx

let push_free t idx off =
  let len = t.free_len.(idx) in
  let offs = t.free_offs.(idx) in
  if len = Array.length offs then begin
    let grown = Array.make (max 8 (2 * len)) 0 in
    Array.blit offs 0 grown 0 len;
    t.free_offs.(idx) <- grown
  end;
  t.free_offs.(idx).(len) <- off;
  t.free_len.(idx) <- len + 1

let alloc t ~size v =
  if size < 0 then invalid_arg "Partition.alloc: negative size";
  let idx = class_index size in
  let cls = class_bytes idx in
  if t.used + cls > t.capacity then
    raise (Out_of_memory { node = t.node; requested = size });
  let offset =
    let len = t.free_len.(idx) in
    if len > 0 then begin
      t.free_len.(idx) <- len - 1;
      t.free_offs.(idx).(len - 1)
    end
    else begin
      let off = t.bump in
      t.bump <- t.bump + cls;
      if t.bump > Gaddr.max_offset then
        raise (Out_of_memory { node = t.node; requested = size });
      off
    end
  in
  Intmap.set t.objects offset { value = v; size };
  t.used <- t.used + cls;
  Gaddr.make ~node:t.node ~offset

let check_home t a label =
  if Gaddr.node_of a <> t.node then
    invalid_arg
      (Printf.sprintf "Partition.%s: address on node %d, partition is node %d"
         label (Gaddr.node_of a) t.node)

(* Lookups match on [Intmap.find]'s [Not_found] rather than take
   [find_opt]'s option: no [Some] per call. *)
let free t a =
  check_home t a "free";
  let off = Gaddr.offset_of a in
  match Intmap.find t.objects off with
  | exception Not_found -> invalid_arg "Partition.free: dead address"
  | e ->
      Intmap.remove t.objects off;
      let idx = class_index e.size in
      t.used <- t.used - class_bytes idx;
      push_free t idx off

let get t a =
  check_home t a "get";
  Intmap.find t.objects (Gaddr.offset_of a)

let mem t a = Gaddr.node_of a = t.node && Intmap.mem t.objects (Gaddr.offset_of a)

let set t a v =
  check_home t a "set";
  match Intmap.find t.objects (Gaddr.offset_of a) with
  | exception Not_found -> invalid_arg "Partition.set: dead address"
  | e -> e.value <- v

let put t a ~size v =
  check_home t a "put";
  let off = Gaddr.offset_of a in
  let cls = class_bytes (class_index size) in
  (match Intmap.find t.objects off with
  | old -> t.used <- t.used - class_bytes (class_index old.size)
  | exception Not_found -> ());
  Intmap.set t.objects off { value = v; size };
  t.used <- t.used + cls;
  (* Keep the bump pointer ahead of mirrored offsets so that a promoted
     backup never mints an address that collides with a mirrored object. *)
  if off + cls > t.bump then t.bump <- off + cls

let iter t f =
  Intmap.iter (fun off e -> f (Gaddr.make ~node:t.node ~offset:off) e) t.objects
