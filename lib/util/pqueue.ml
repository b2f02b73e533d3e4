(* Hybrid calendar/flat-array priority queue keyed by (time, sequence).

   The binary heap this module used to be spends most of its host time
   chasing pointers: every entry was a boxed {time; seq; value} record,
   and every sift compared through two indirections.  The discrete-event
   engine's push distribution is extremely skewed — almost every event is
   scheduled either at the current instant (suspend/resume trampolines)
   or a few microseconds ahead (fabric verbs, compute flushes) — so the
   rewrite splits pending events across three flat-array structures, all
   storing time/seq/value in parallel unboxed arrays:

   - a "now ring": FIFO of events at exactly the last popped time (the
     current instant).  Push and pop are O(1) array writes; this absorbs
     the resume-at-now storm that dominates engine traffic.
   - a calendar of [nb] fixed-width buckets covering a sliding
     near-horizon window.  Each bucket keeps its live region sorted by
     (time, seq) via binary-search insertion; buckets are consumed in
     index order.
   - an overflow binary heap for far-future timers (heartbeats, retry
     backoffs beyond the window) — flat parallel arrays, no boxing.

   A push behind the last popped time is rejected, so every pending
   entry is at or after [cur_time].  The ring's entries are therefore
   the earliest pending time, and the clock cannot move past them while
   any remain: the ring's time is [cur_time] whenever it is non-empty.

   Dispatch order is identical to a plain (time, seq) heap: pop always
   takes the global (time, seq) minimum across the three structures,
   and each structure yields its own entries in (time, seq) order.
   Bucket routing is a monotone function of time (floats: subtraction
   and multiplication by a positive constant preserve <=), entries that
   would land in an already-drained bucket are clamped into the current
   one (where in-bucket sorting re-orders them correctly), and fresh
   pushes always carry the largest sequence number yet, so a time-only
   binary search finds their unique sorted slot. *)

(* Number of calendar buckets and the virtual-time width of each.  The
   window spans nb * width = 256 us — wide enough that fabric latencies
   (microseconds) and compute flush grains land in buckets, while
   heartbeat-scale timers overflow to the heap. *)
let nb = 1024

let width = 0.25e-6
let inv_width = 1.0 /. width

(* Dummy slot value for the uniform value arrays.  The arrays are
   created with an immediate value, so they are never flat float arrays
   and the polymorphic array primitives handle any ['a] stored later. *)
let dummy : 'a. unit -> 'a =
 fun () ->
  (Obj.magic ()
  [@dlint.allow
    "determinism: unread slot sentinel for pre-sized uniform arrays; \
     b_len guards every access so the dummy is never observed"])

type 'a bucket = {
  mutable b_time : float array;
  mutable b_seq : int array;
  mutable b_val : 'a array;
  mutable b_len : int;
  mutable b_off : int; (* consumed prefix (current bucket only) *)
}

type 'a heap = {
  mutable h_time : float array;
  mutable h_seq : int array;
  mutable h_val : 'a array;
  mutable h_len : int;
}

type 'a t = {
  mutable next_seq : int;
  mutable count : int;
  mutable cur_time : float; (* time of the last popped entry *)
  (* Now ring: all entries are at [cur_time]; seqs are FIFO. *)
  mutable now_seq : int array;
  mutable now_val : 'a array;
  mutable now_head : int;
  mutable now_len : int;
  (* Calendar window [win_lo, win_hi) over buckets [0, nb). *)
  buckets : 'a bucket array;
  mutable win_lo : float;
  mutable win_hi : float; (* neg_infinity = no window *)
  mutable cb : int; (* current (lowest live) bucket index *)
  mutable cal_count : int; (* unconsumed entries across all buckets *)
  heap : 'a heap; (* overflow: far-future timers *)
}

let make_heap () =
  { h_time = [||]; h_seq = [||]; h_val = [||]; h_len = 0 }

let create () =
  {
    next_seq = 0;
    count = 0;
    cur_time = neg_infinity;
    now_seq = [||];
    now_val = [||];
    now_head = 0;
    now_len = 0;
    buckets =
      Array.init nb (fun _ ->
          { b_time = [||]; b_seq = [||]; b_val = [||]; b_len = 0; b_off = 0 });
    win_lo = infinity;
    win_hi = neg_infinity;
    cb = 0;
    cal_count = 0;
    heap = make_heap ();
  }

let is_empty t = t.count = 0
let length t = t.count
let pushed t = t.next_seq

(* --------------------- flat binary heap (overflow) --------------------- *)

let heap_grow h =
  let cap = max 16 (2 * Array.length h.h_time) in
  let nt = Array.make cap 0.0
  and ns = Array.make cap 0
  and nv = Array.make cap (dummy ()) in
  Array.blit h.h_time 0 nt 0 h.h_len;
  Array.blit h.h_seq 0 ns 0 h.h_len;
  Array.blit h.h_val 0 nv 0 h.h_len;
  h.h_time <- nt;
  h.h_seq <- ns;
  h.h_val <- nv

let[@inline] heap_push h ~time ~seq v =
  if h.h_len = Array.length h.h_time then heap_grow h;
  let tm = h.h_time and sq = h.h_seq and vl = h.h_val in
  (* Sift up with a hole instead of repeated swaps. *)
  let i = ref h.h_len in
  h.h_len <- h.h_len + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) / 2 in
    if time < tm.(p) || (time = tm.(p) && seq < sq.(p)) then begin
      tm.(!i) <- tm.(p);
      sq.(!i) <- sq.(p);
      vl.(!i) <- vl.(p);
      i := p
    end
    else continue_ := false
  done;
  tm.(!i) <- time;
  sq.(!i) <- seq;
  vl.(!i) <- v

(* Remove the root; the caller has already read it. *)
let heap_drop h =
  let n = h.h_len - 1 in
  h.h_len <- n;
  let tm = h.h_time and sq = h.h_seq and vl = h.h_val in
  if n > 0 then begin
    let time = tm.(n) and seq = sq.(n) and v = vl.(n) in
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
          vl.(!i) <- vl.(c);
          i := c
        end
        else continue_ := false
      end
    done;
    tm.(!i) <- time;
    sq.(!i) <- seq;
    vl.(!i) <- v
  end;
  vl.(n) <- dummy ()

(* ------------------------------ buckets ------------------------------ *)

let bucket_grow b =
  let live = b.b_len - b.b_off in
  let cap = max 8 (2 * live) in
  let nt = Array.make cap 0.0
  and ns = Array.make cap 0
  and nv = Array.make cap (dummy ()) in
  Array.blit b.b_time b.b_off nt 0 live;
  Array.blit b.b_seq b.b_off ns 0 live;
  Array.blit b.b_val b.b_off nv 0 live;
  b.b_time <- nt;
  b.b_seq <- ns;
  b.b_val <- nv;
  b.b_len <- live;
  b.b_off <- 0

(* Append at the end without searching: used by heap migration, which
   feeds entries in ascending (time, seq) order. *)
let bucket_append b ~time ~seq v =
  if b.b_len = Array.length b.b_time then bucket_grow b;
  b.b_time.(b.b_len) <- time;
  b.b_seq.(b.b_len) <- seq;
  b.b_val.(b.b_len) <- v;
  b.b_len <- b.b_len + 1

(* Sorted insert.  The entry carries the largest sequence number ever
   issued, so its slot is after every entry with time <= [time]: a
   binary search on time alone finds it. *)
let[@inline] bucket_insert b ~time ~seq v =
  if b.b_len = Array.length b.b_time then bucket_grow b;
  let lo = ref b.b_off and hi = ref b.b_len in
  let tm = b.b_time in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if tm.(mid) <= time then lo := mid + 1 else hi := mid
  done;
  let pos = !lo in
  let tail = b.b_len - pos in
  if tail > 0 then begin
    Array.blit b.b_time pos b.b_time (pos + 1) tail;
    Array.blit b.b_seq pos b.b_seq (pos + 1) tail;
    Array.blit b.b_val pos b.b_val (pos + 1) tail
  end;
  b.b_time.(pos) <- time;
  b.b_seq.(pos) <- seq;
  b.b_val.(pos) <- v;
  b.b_len <- b.b_len + 1

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

let[@inline] bucket_index t time =
  int_of_float ((time -. t.win_lo) *. inv_width)

(* The one insertion body.  It is inlined into both entry points, and
   [bucket_insert] and [heap_push] into it, so [time] stays an unboxed
   local from the caller's float to the queue's float arrays: a time
   read out of a {!cell} is never boxed. *)
let[@inline] insert t time value =
  if not (time >= t.cur_time) then
    invalid_arg
      (Printf.sprintf "Pqueue.push: time %g is before the last popped time %g"
         time t.cur_time);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.count <- t.count + 1;
  if time = t.cur_time then ring_push t ~seq value
  else if time < t.win_hi then begin
    let i = bucket_index t time in
    let i = if i < t.cb then t.cb else i in
    bucket_insert t.buckets.(i) ~time ~seq value;
    t.cal_count <- t.cal_count + 1
  end
  else if t.cal_count = 0 then begin
    (* Re-anchor an exhausted (or absent) window at the current time. *)
    t.win_lo <- (if t.cur_time > neg_infinity then t.cur_time else time);
    t.win_hi <- t.win_lo +. (float_of_int nb *. width);
    t.cb <- 0;
    if time < t.win_hi then begin
      bucket_insert t.buckets.(bucket_index t time) ~time ~seq value;
      t.cal_count <- 1
    end
    else heap_push t.heap ~time ~seq value
  end
  else heap_push t.heap ~time ~seq value

let push t ~time value = insert t time value

type cell = { mutable time : float }

let push_cell t cell value = insert t cell.time value

(* ------------------------------- pop -------------------------------- *)

(* All remaining entries sit in the overflow heap: re-anchor the window
   at the heap minimum and migrate everything inside it into buckets.
   Heap pops come out in ascending (time, seq) order, so plain appends
   keep every bucket sorted. *)
let migrate t =
  t.win_lo <- t.heap.h_time.(0);
  t.win_hi <- t.win_lo +. (float_of_int nb *. width);
  t.cb <- 0;
  let continue_ = ref true in
  while !continue_ && t.heap.h_len > 0 do
    let time = t.heap.h_time.(0) in
    if time >= t.win_hi then continue_ := false
    else begin
      let i = bucket_index t time in
      if i >= nb then continue_ := false
      else begin
        bucket_append t.buckets.(i) ~time ~seq:t.heap.h_seq.(0)
          t.heap.h_val.(0);
        t.cal_count <- t.cal_count + 1;
        heap_drop t.heap
      end
    end
  done

(* Advance [cb] to the lowest bucket with live entries; caller ensures
   [cal_count > 0]. *)
let advance_cb t =
  let b = ref t.buckets.(t.cb) in
  while (!b).b_off >= (!b).b_len do
    (!b).b_len <- 0;
    (!b).b_off <- 0;
    t.cb <- t.cb + 1;
    b := t.buckets.(t.cb)
  done;
  !b

(* Candidate sources for the global minimum. *)
let src_now = 0

let src_bucket = 1
let src_heap = 2

(* Remove and return the global (time, seq) minimum; caller ensures
   [count > 0].  The popped time is left in [cur_time] for the engine
   to read.  Writing a float field of a mixed record boxes the float,
   so a pop at the instant already stored skips the write and
   allocates nothing. *)
let pop_exn t =
  if t.count = 0 then invalid_arg "Pqueue.pop_exn: empty queue";
  if t.now_len = 0 && t.cal_count = 0 && t.heap.h_len >= 4 then migrate t;
  (* Some entry exists, so some source below beats (infinity, max_int). *)
  let best_time = ref infinity
  and best_seq = ref max_int
  and src = ref src_heap in
  if t.now_len > 0 then begin
    best_time := t.cur_time;
    best_seq := t.now_seq.(t.now_head);
    src := src_now
  end;
  let b = if t.cal_count > 0 then advance_cb t else t.buckets.(0) in
  if t.cal_count > 0 then begin
    let bt = b.b_time.(b.b_off) and bs = b.b_seq.(b.b_off) in
    if bt < !best_time || (bt = !best_time && bs < !best_seq) then begin
      best_time := bt;
      best_seq := bs;
      src := src_bucket
    end
  end;
  if
    t.heap.h_len > 0
    && (t.heap.h_time.(0) < !best_time
       || (t.heap.h_time.(0) = !best_time && t.heap.h_seq.(0) < !best_seq))
  then begin
    best_time := t.heap.h_time.(0);
    best_seq := t.heap.h_seq.(0);
    src := src_heap
  end;
  let v =
    if !src = src_now then begin
      let v = t.now_val.(t.now_head) in
      t.now_val.(t.now_head) <- dummy ();
      t.now_head <- (t.now_head + 1) land (Array.length t.now_seq - 1);
      t.now_len <- t.now_len - 1;
      v
    end
    else if !src = src_bucket then begin
      let v = b.b_val.(b.b_off) in
      b.b_val.(b.b_off) <- dummy ();
      b.b_off <- b.b_off + 1;
      t.cal_count <- t.cal_count - 1;
      v
    end
    else begin
      let v = t.heap.h_val.(0) in
      heap_drop t.heap;
      v
    end
  in
  let time = !best_time in
  (* [=] alone would also equate 0.0 and -0.0. *)
  if not (time = t.cur_time && Float.sign_bit time = Float.sign_bit t.cur_time)
  then t.cur_time <- time;
  t.count <- t.count - 1;
  v

let last_time t = t.cur_time

let pop t =
  if t.count = 0 then None
  else begin
    let v = pop_exn t in
    Some (t.cur_time, v)
  end

let peek_time t =
  if t.count = 0 then None
  else begin
    if t.now_len = 0 && t.cal_count = 0 && t.heap.h_len >= 4 then migrate t;
    let best = ref infinity in
    if t.now_len > 0 then best := t.cur_time;
    if t.cal_count > 0 then begin
      let b = advance_cb t in
      if b.b_time.(b.b_off) < !best then best := b.b_time.(b.b_off)
    end;
    if t.heap.h_len > 0 && t.heap.h_time.(0) < !best then
      best := t.heap.h_time.(0);
    Some !best
  end

let has_due t =
  let now = t.cur_time in
  t.now_len > 0
  || (t.cal_count > 0
     &&
     let b = advance_cb t in
     b.b_time.(b.b_off) <= now)
  || (t.heap.h_len > 0 && t.heap.h_time.(0) <= now)

let clear t =
  t.count <- 0;
  t.cur_time <- neg_infinity;
  t.now_seq <- [||];
  t.now_val <- [||];
  t.now_head <- 0;
  t.now_len <- 0;
  Array.iter
    (fun b ->
      b.b_time <- [||];
      b.b_seq <- [||];
      b.b_val <- [||];
      b.b_len <- 0;
      b.b_off <- 0)
    t.buckets;
  t.win_lo <- infinity;
  t.win_hi <- neg_infinity;
  t.cb <- 0;
  t.cal_count <- 0;
  t.heap.h_time <- [||];
  t.heap.h_seq <- [||];
  t.heap.h_val <- [||];
  t.heap.h_len <- 0
