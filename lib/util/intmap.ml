(* Flat open-addressing hash map with non-negative int keys.

   Replaces the stdlib [Hashtbl] in the simulator's per-object side
   tables (heap partitions, node caches, the cluster Env).  Linear
   probing over two parallel flat arrays keeps a lookup inside one or
   two cache lines and allocates nothing per binding — a stdlib Hashtbl
   allocates a bucket cons cell per binding and hashes through a generic
   function.  See docs/PERFORMANCE.md.

   Keys must be >= 0: negative values are reserved as the empty (-1) and
   tombstone (-2) slot markers.  Deletions leave tombstones; the table
   rehashes (dropping them) when live + dead slots pass half the
   capacity, so probe chains stay short. *)

(* The value arrays are created with an immediate dummy, which commits
   them to the generic (non-flat-float) representation; storing any
   boxed ['a] afterwards is then representation-safe. *)
let dummy : 'a. unit -> 'a =
 fun () ->
  (Obj.magic ()
  [@dlint.allow
    "determinism: unread slot sentinel for pre-sized uniform arrays; \
     the keys array guards every access so the dummy is never observed"])

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable live : int; (* stored bindings *)
  mutable used : int; (* live + tombstones *)
}

let empty_slot = -1
let tombstone = -2

let rec pow2_above n c = if c >= n then c else pow2_above n (c * 2)

let create ?(capacity = 16) () =
  let cap = pow2_above (max 8 capacity) 8 in
  {
    keys = Array.make cap empty_slot;
    vals = Array.make cap (dummy ());
    mask = cap - 1;
    live = 0;
    used = 0;
  }


(* Fibonacci-style multiplicative hash: spreads the low-entropy keys the
   simulator uses (16-byte-aligned heap offsets, dense Env ids) across
   the table.  The fixed 30-bit shift picks well-mixed middle bits of
   the product for any table size in practical range. *)
let[@inline] index k mask = (k * 0x2545F4914F6CDD1D) lsr 30 land mask

(* The probe loops below are [while] loops or toplevel functions, never
   local recursive closures (docs/PERFORMANCE.md, "Closures that
   capture").

   [slot keys mask k] is the slot holding [k], or the empty slot that
   ends its probe chain. *)
let slot keys mask k =
  let i = ref (index k mask) in
  while
    let kk = Array.unsafe_get keys !i in
    kk <> k && kk <> empty_slot
  do
    i := (!i + 1) land mask
  done;
  !i

let find t k =
  let i = slot t.keys t.mask k in
  if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i
  else raise_notrace Not_found

let find_opt t k =
  let i = slot t.keys t.mask k in
  if Array.unsafe_get t.keys i = k then Some (Array.unsafe_get t.vals i)
  else None

let mem t k = Array.unsafe_get t.keys (slot t.keys t.mask k) = k

(* Insert into a table known to contain neither [k] nor any tombstone
   (used during rehash). *)
let insert_fresh keys vals mask k v =
  let i = slot keys mask k in
  Array.unsafe_set keys i k;
  Array.unsafe_set vals i v

let rehash t cap =
  let keys = Array.make cap empty_slot in
  let vals = Array.make cap (dummy ()) in
  let mask = cap - 1 in
  let old_keys = t.keys and old_vals = t.vals in
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k >= 0 then insert_fresh keys vals mask k (Array.unsafe_get old_vals i)
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask;
  t.used <- t.live

(* [ins] is the first tombstone crossed, reusable if [k] is absent. *)
let rec set_from t keys mask k v i ins =
  let kk = Array.unsafe_get keys i in
  if kk = k then Array.unsafe_set t.vals i v
  else if kk = empty_slot then begin
    if ins >= 0 then begin
      Array.unsafe_set keys ins k;
      Array.unsafe_set t.vals ins v
    end
    else begin
      Array.unsafe_set keys i k;
      Array.unsafe_set t.vals i v;
      t.used <- t.used + 1
    end;
    t.live <- t.live + 1
  end
  else
    let next = (i + 1) land mask in
    if kk = tombstone && ins < 0 then set_from t keys mask k v next i
    else set_from t keys mask k v next ins

let set t k v =
  if k < 0 then invalid_arg "Intmap.set: negative key";
  (* Keep load (including tombstones) under 1/2 so probe chains stay
     short; the new capacity leaves the live set under 1/2 as well. *)
  if 2 * t.used >= t.mask + 1 then
    rehash t (pow2_above (max 8 ((2 * t.live) + 1)) 8);
  set_from t t.keys t.mask k v (index k t.mask) (-1)

let remove t k =
  let keys = t.keys in
  let i = slot keys t.mask k in
  if Array.unsafe_get keys i = k then begin
    Array.unsafe_set keys i tombstone;
    Array.unsafe_set t.vals i (dummy ());
    t.live <- t.live - 1
  end

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then f k (Array.unsafe_get vals i)
  done

let fold f t init =
  let keys = t.keys and vals = t.vals in
  let acc = ref init in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then acc := f k (Array.unsafe_get vals i) !acc
  done;
  !acc
