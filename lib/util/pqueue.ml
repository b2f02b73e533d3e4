(* Ring + flat-heap priority queue keyed by (time, sequence).

   The discrete-event engine's push distribution is skewed: most events
   are scheduled at the current instant (suspend/resume trampolines), the
   rest some time ahead (fabric verbs, compute flushes, timers).  Pending
   events therefore sit in one of two places:

   - a "now ring": FIFO of events pushed at exactly the last popped time
     (the current instant).  Push and pop are O(1) array writes; this
     absorbs the resume-at-now storm that dominates engine traffic.
   - a flat binary heap for every other push.  Its keys live in
     parallel unboxed arrays, and each value stays in a fixed slot while
     the sifts move only keys and slot numbers: moving the values would
     pay the write barrier of a store into a boxed array at every level.

   A push behind the last popped time is rejected, so every pending
   entry is at or after [cur_time].  The ring's entries are therefore
   the earliest pending time, and the clock cannot move past them while
   any remain: the ring's time is [cur_time] whenever it is non-empty.

   Dispatch order is identical to a plain (time, seq) heap: each place
   yields its own entries in (time, seq) order, and pop takes the smaller
   of the two heads.  A heap entry can be due at the current instant
   only if it was pushed before the clock reached that instant, with a
   lower sequence number than any ring entry pushed since; it pops
   first. *)

(* Dummy slot value for the uniform value arrays.  The arrays are
   created with an immediate value, so they are never flat float arrays
   and the polymorphic array primitives handle any ['a] stored later. *)
let dummy : 'a. unit -> 'a =
 fun () ->
  (Obj.magic ()
  [@dlint.allow
    "determinism: unread slot sentinel for pre-sized uniform arrays; \
     a slot is read only while its entry is pending, so the dummy is \
     never observed"])

(* A float-only record, so its field is stored unboxed: a pop that
   moves the clock writes a raw float, not a fresh box. *)
type clock = { mutable cur_time : float (* time of the last popped entry *) }

type 'a t = {
  mutable next_seq : int;
  clock : clock;
  (* Now ring: all entries are at [cur_time]; seqs are FIFO. *)
  mutable now_seq : int array;
  mutable now_val : 'a array;
  mutable now_head : int;
  mutable now_len : int;
  (* Heap: every entry pushed ahead of the clock.  [h_slot] is a
     permutation of the indices of [slots]: its first [h_len] entries
     locate the heap's values, the rest are free slots. *)
  mutable h_time : float array;
  mutable h_seq : int array;
  mutable h_slot : int array;
  mutable h_len : int;
  mutable slots : 'a array;
}

let create () =
  {
    next_seq = 0;
    clock = { cur_time = neg_infinity };
    now_seq = [||];
    now_val = [||];
    now_head = 0;
    now_len = 0;
    h_time = [||];
    h_seq = [||];
    h_slot = [||];
    h_len = 0;
    slots = [||];
  }

let is_empty t = t.now_len = 0 && t.h_len = 0
let pushed t = t.next_seq

(* ---------------------------- binary heap ---------------------------- *)

(* Called when the heap is full, so every old slot is in use. *)
let heap_grow t =
  let cap = max 16 (2 * t.h_len) in
  let nt = Array.make cap 0.0
  and ns = Array.make cap 0
  and nh = Array.init cap Fun.id
  and nv = Array.make cap (dummy ()) in
  Array.blit t.h_time 0 nt 0 t.h_len;
  Array.blit t.h_seq 0 ns 0 t.h_len;
  Array.blit t.h_slot 0 nh 0 t.h_len;
  Array.blit t.slots 0 nv 0 t.h_len;
  t.h_time <- nt;
  t.h_seq <- ns;
  t.h_slot <- nh;
  t.slots <- nv

let[@inline] heap_push t ~time ~seq v =
  if t.h_len = Array.length t.h_time then heap_grow t;
  let tm = t.h_time and sq = t.h_seq and sl = t.h_slot in
  let slot = sl.(t.h_len) in
  t.slots.(slot) <- v;
  (* Sift up with a hole instead of repeated swaps. *)
  let i = ref t.h_len in
  t.h_len <- t.h_len + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) / 2 in
    if time < tm.(p) || (time = tm.(p) && seq < sq.(p)) then begin
      tm.(!i) <- tm.(p);
      sq.(!i) <- sq.(p);
      sl.(!i) <- sl.(p);
      i := p
    end
    else continue_ := false
  done;
  tm.(!i) <- time;
  sq.(!i) <- seq;
  sl.(!i) <- slot

(* Remove the root and return its value; its slot becomes the first
   free one. *)
let heap_pop t =
  let tm = t.h_time and sq = t.h_seq and sl = t.h_slot in
  let root = sl.(0) in
  let v = t.slots.(root) in
  t.slots.(root) <- dummy ();
  let n = t.h_len - 1 in
  t.h_len <- n;
  if n > 0 then begin
    let time = tm.(n) and seq = sq.(n) and slot = sl.(n) in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= n then continue_ := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (tm.(r) < tm.(l) || (tm.(r) = tm.(l) && sq.(r) < sq.(l)))
          then r
          else l
        in
        if tm.(c) < time || (tm.(c) = time && sq.(c) < seq) then begin
          tm.(!i) <- tm.(c);
          sq.(!i) <- sq.(c);
          sl.(!i) <- sl.(c);
          i := c
        end
        else continue_ := false
      end
    done;
    tm.(!i) <- time;
    sq.(!i) <- seq;
    sl.(!i) <- slot
  end;
  sl.(n) <- root;
  v

(* ------------------------------ now ring ----------------------------- *)

let ring_grow t =
  let cap = max 16 (2 * Array.length t.now_seq) in
  let ns = Array.make cap 0 and nv = Array.make cap (dummy ()) in
  let old_cap = Array.length t.now_seq in
  for i = 0 to t.now_len - 1 do
    let j = (t.now_head + i) land (old_cap - 1) in
    ns.(i) <- t.now_seq.(j);
    nv.(i) <- t.now_val.(j)
  done;
  t.now_seq <- ns;
  t.now_val <- nv;
  t.now_head <- 0

let ring_push t ~seq v =
  if t.now_len = Array.length t.now_seq then ring_grow t;
  let slot = (t.now_head + t.now_len) land (Array.length t.now_seq - 1) in
  t.now_seq.(slot) <- seq;
  t.now_val.(slot) <- v;
  t.now_len <- t.now_len + 1

(* ------------------------------- push ------------------------------- *)

let rejected time cur_time =
  invalid_arg
    (Printf.sprintf "Pqueue.push: time %g is before the last popped time %g"
       time cur_time)

(* Inlined into the caller, with [heap_push] inlined into it, so a
   [time] the caller computes stays an unboxed float all the way to the
   heap's float array. *)
let[@inline] push t ~time value =
  let cur_time = t.clock.cur_time in
  if not (time >= cur_time) then rejected time cur_time;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if time = cur_time then ring_push t ~seq value
  else heap_push t ~time ~seq value

(* ------------------------------- pop -------------------------------- *)

(* The heap's root is due now and was pushed before the ring's head.
   Every heap entry is at or after [cur_time], so "due" is equality. *)
let[@inline] heap_first t =
  t.h_len > 0
  && t.h_time.(0) = t.clock.cur_time
  && t.h_seq.(0) < t.now_seq.(t.now_head)

(* Remove and return the global (time, seq) minimum.  The popped time is
   left in [cur_time] for the engine to read; the store is unboxed. *)
let[@inline] pop_exn t =
  if is_empty t then invalid_arg "Pqueue.pop_exn: empty queue";
  if t.now_len > 0 && not (heap_first t) then begin
    let v = t.now_val.(t.now_head) in
    t.now_val.(t.now_head) <- dummy ();
    t.now_head <- (t.now_head + 1) land (Array.length t.now_seq - 1);
    t.now_len <- t.now_len - 1;
    v
  end
  else begin
    t.clock.cur_time <- t.h_time.(0);
    heap_pop t
  end

let[@inline] last_time t = t.clock.cur_time

let has_due t =
  t.now_len > 0 || (t.h_len > 0 && t.h_time.(0) <= t.clock.cur_time)

(* An entry pushed at [time] would be the very next pop when the ring is
   empty (a ring entry is due now, at or before [time], and was pushed
   first) and [time] is strictly before the heap's root (a root at the
   same time was pushed first).  Then the push and its pop are counted
   as if both had happened: the sequence number is spent and the clock
   moves, so [pushed], [last_time] and the order of everything still
   pending are exactly those of the queued path. *)
let[@inline] elide_next t ~time =
  if
    t.now_len = 0
    && time >= t.clock.cur_time
    && (t.h_len = 0 || time < t.h_time.(0))
  then begin
    t.next_seq <- t.next_seq + 1;
    t.clock.cur_time <- time;
    true
  end
  else false
