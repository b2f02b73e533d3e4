(* Unit and property tests for the utility substrate: RNG determinism,
   zipf distribution shape, statistics, the priority queue, and universal
   values. *)

module Rng = Drust_util.Rng
module Zipf = Drust_util.Zipf
module Stats = Drust_util.Stats
module Pqueue = Drust_util.Pqueue
module Univ = Drust_util.Univ

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool)
    "different seeds differ" false
    (Rng.bits64 a = Rng.bits64 b)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_int_in_bounds () =
  let r = Rng.create ~seed:4 in
  for _ = 1 to 10_000 do
    let x = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in range" true (x >= -5 && x <= 5)
  done

let test_rng_float_mean () =
  let r = Rng.create ~seed:5 in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float r 1.0
  done;
  let mean = !acc /. Float.of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_split_independent () =
  let r = Rng.create ~seed:6 in
  let a = Rng.split r and b = Rng.split r in
  Alcotest.(check bool) "split streams differ" false (Rng.bits64 a = Rng.bits64 b)

(* Drust_util.Rng, which keeps its state in two immediate 32-bit
   halves, must stay bit-identical to textbook splitmix64.  The
   reference below is the plain Int64 version of the algorithm; the
   literals pin the first outputs of two seeds (one negative,
   exercising sign extension in [create]) so a bug in the reference
   itself cannot hide a matching bug in the implementation. *)
module Rng_reference = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int seed }

  let bits64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)
end

let test_rng_golden_sequence () =
  List.iter
    (fun seed ->
      let r = Rng.create ~seed and ref_ = Rng_reference.create ~seed in
      for i = 1 to 10_000 do
        let got = Rng.bits64 r and want = Rng_reference.bits64 ref_ in
        if got <> want then
          Alcotest.failf "seed %d, draw %d: got 0x%Lx, reference 0x%Lx" seed
            i got want
      done)
    [ 0; 1; 42; -7; max_int; min_int ];
  (* Hard-coded splitmix64 values, independent of the reference above. *)
  let r = Rng.create ~seed:42 in
  List.iter
    (fun want -> check Alcotest.int64 "seed 42 prefix" want (Rng.bits64 r))
    [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L;
      0x581ce1ff0e4ae394L ];
  let r = Rng.create ~seed:(-7) in
  List.iter
    (fun want -> check Alcotest.int64 "seed -7 prefix" want (Rng.bits64 r))
    [ 0x6c1e186443822970L; 0x7a87f4dabcf192aaL ]

let test_rng_derived_draws_match_bits () =
  (* nonneg/float/bool are pure views of the 64-bit output: check the
     bit-slicing against an independent stream of raw draws. *)
  let a = Rng.create ~seed:1234 and b = Rng.create ~seed:1234 in
  for _ = 1 to 1_000 do
    let z = Rng.bits64 a in
    let n = Rng.int b max_int in
    let want = Int64.to_int (Int64.shift_right_logical z 2) mod max_int in
    Alcotest.(check int) "nonneg slice" want n
  done;
  let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
  for _ = 1 to 1_000 do
    let z = Rng.bits64 a in
    let f = Rng.float b 1.0 in
    let mantissa = Int64.to_int (Int64.shift_right_logical z 11) in
    let want = Float.of_int mantissa /. 9007199254740992.0 in
    Alcotest.(check (float 0.0)) "float slice" want f
  done;
  let a = Rng.create ~seed:5 and b = Rng.create ~seed:5 in
  for _ = 1 to 1_000 do
    let z = Rng.bits64 a in
    Alcotest.(check bool) "bool slice" (Int64.logand z 1L = 1L) (Rng.bool b)
  done

let test_rng_bernoulli () =
  let r = Rng.create ~seed:9 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r ~p:0.3 then incr hits
  done;
  let freq = Float.of_int !hits /. Float.of_int n in
  Alcotest.(check bool) "p=0.3" true (Float.abs (freq -. 0.3) < 0.02)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:10 in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r ~mean:2.0
  done;
  let mean = !acc /. Float.of_int n in
  Alcotest.(check bool) "mean near 2" true (Float.abs (mean -. 2.0) < 0.05)

let test_rng_gaussian_moments () =
  let r = Rng.create ~seed:11 in
  let n = 100_000 in
  let acc = ref 0.0 and acc2 = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian r ~mu:1.0 ~sigma:2.0 in
    acc := !acc +. x;
    acc2 := !acc2 +. (x *. x)
  done;
  let mean = !acc /. Float.of_int n in
  let var = (!acc2 /. Float.of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mu" true (Float.abs (mean -. 1.0) < 0.05);
  Alcotest.(check bool) "sigma^2" true (Float.abs (var -. 4.0) < 0.2)

(* ------------------------------------------------------------------ *)
(* Zipf *)

let test_zipf_range () =
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let r = Rng.create ~seed:13 in
  for _ = 1 to 10_000 do
    let k = Zipf.sample z r in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 1000)
  done

let test_zipf_skew () =
  (* With theta=0.99 over 10k keys, the top 10 keys should carry far more
     mass than a uniform draw would (10/10000 = 0.1%). *)
  let z = Zipf.create ~n:10_000 ~theta:0.99 in
  let r = Rng.create ~seed:14 in
  let n = 100_000 in
  let top = ref 0 in
  for _ = 1 to n do
    if Zipf.sample z r < 10 then incr top
  done;
  let share = Float.of_int !top /. Float.of_int n in
  Alcotest.(check bool) "skewed head" true (share > 0.2)

let test_zipf_expected_share_monotone () =
  let z = Zipf.create ~n:1000 ~theta:0.9 in
  let s10 = Zipf.expected_top_share z ~k:10 in
  let s100 = Zipf.expected_top_share z ~k:100 in
  let s1000 = Zipf.expected_top_share z ~k:1000 in
  Alcotest.(check bool) "monotone" true (s10 < s100 && s100 < s1000);
  checkf "full mass" 1.0 s1000

let test_zipf_matches_expectation () =
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let r = Rng.create ~seed:15 in
  let n = 200_000 in
  let top100 = ref 0 in
  for _ = 1 to n do
    if Zipf.sample z r < 100 then incr top100
  done;
  let observed = Float.of_int !top100 /. Float.of_int n in
  let expected = Zipf.expected_top_share z ~k:100 in
  Alcotest.(check bool)
    (Printf.sprintf "observed %.3f vs expected %.3f" observed expected)
    true
    (Float.abs (observed -. expected) < 0.03)

(* A sampler computed from scratch, the way [Zipf.create] did before it
   memoised: the reference the shared record must match bit for bit. *)
let fresh_zipf ~n ~theta =
  let zeta n =
    let acc = ref 0.0 in
    for i = 1 to n do
      acc := !acc +. (1.0 /. Float.pow (Float.of_int i) theta)
    done;
    !acc
  in
  let zetan = zeta n in
  let eta =
    (1.0 -. Float.pow (2.0 /. Float.of_int n) (1.0 -. theta))
    /. (1.0 -. (zeta 2 /. zetan))
  in
  let alpha = 1.0 /. (1.0 -. theta) in
  let sample rng =
    let u = Rng.float rng 1.0 in
    let uz = u *. zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. Float.pow 0.5 theta then 1
    else
      let k =
        Float.to_int
          (Float.of_int n *. Float.pow ((eta *. u) -. eta +. 1.0) alpha)
      in
      if k >= n then n - 1 else if k < 0 then 0 else k
  in
  sample

let test_zipf_memo () =
  let n = 50_000 and theta = 0.99 in
  let z = Zipf.create ~n ~theta in
  Alcotest.(check bool) "second create shares the record" true
    (Zipf.create ~n ~theta == z);
  Alcotest.(check bool) "another theta is another sampler" false
    (Zipf.create ~n ~theta:0.9 == z);
  let sample = fresh_zipf ~n ~theta in
  let a = Rng.create ~seed:16 and b = Rng.create ~seed:16 in
  for i = 1 to 100_000 do
    let want = sample a in
    let got = Zipf.sample (Zipf.create ~n ~theta) b in
    if got <> want then
      Alcotest.failf "draw %d: memoised sampler gave %d, fresh %d" i got want
  done

let test_zipf_invalid_args () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~theta:0.5));
  Alcotest.check_raises "theta=1"
    (Invalid_argument "Zipf.create: theta must be in (0, 1)") (fun () ->
      ignore (Zipf.create ~n:10 ~theta:1.0))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean_median () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  checkf "mean" 3.0 (Stats.mean s);
  checkf "median" 3.0 (Stats.median s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (Float.of_int i)
  done;
  checkf "p90" 90.0 (Stats.percentile s 90.0);
  checkf "p100" 100.0 (Stats.percentile s 100.0);
  checkf "p1" 1.0 (Stats.percentile s 1.0)

let test_stats_add_after_percentile () =
  (* Percentile sorts lazily; adding afterwards must still work. *)
  let s = Stats.create () in
  List.iter (Stats.add s) [ 3.0; 1.0; 2.0 ];
  checkf "median" 2.0 (Stats.median s);
  Stats.add s 10.0;
  checkf "p100" 10.0 (Stats.percentile s 100.0)

let test_stats_empty () =
  let s = Stats.create () in
  checkf "empty mean" 0.0 (Stats.mean s);
  check Alcotest.int "empty count" 0 (Stats.count s);
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile s 50.0))

(* Samples for the sort: either drawn from a small pool, so that most
   are duplicates, with 0.0, -0.0 and NaN among them ([Float.compare]
   ties the zeros and orders NaN first), or spread over a range. *)
let random_samples rng n =
  let pool = [| 0.0; -0.0; 1.0; 2.5; -3.0; nan; 1e-6 |] in
  let few = Rng.bool rng in
  Array.init n (fun _ ->
      if few then pool.(Rng.int rng (Array.length pool))
      else Rng.float rng 2.0 -. 1.0)

(* Every rank of [s] against the nearest-rank reading of [buffer], the
   samples in the order [s] holds them, sorted by [Array.sort
   Float.compare]; bit for bit.  Returns the sorted buffer. *)
let check_every_rank s buffer =
  let n = Array.length buffer in
  let sorted = Array.copy buffer in
  Array.sort Float.compare sorted;
  let nearest p =
    let rank = Float.to_int (ceil (p /. 100.0 *. Float.of_int n)) in
    sorted.(min (max 0 (rank - 1)) (n - 1))
  in
  let same what want got =
    if Int64.bits_of_float want <> Int64.bits_of_float got then
      Alcotest.failf "n=%d %s: want %h, got %h" n what want got
  in
  same "median" (nearest 50.0) (Stats.median s);
  for k = 0 to n do
    let p = 100.0 *. Float.of_int k /. Float.of_int n in
    same (Printf.sprintf "p%g" p) (nearest p) (Stats.percentile s p)
  done;
  sorted

(* The in-place sort against [Array.sort Float.compare]: sizes 0, 1, 2,
   small odd and even ones and 48k, then again after more samples land
   behind the sorted ones.  Ties (0.0 and -0.0) must land where the
   reference puts them, so the second round's reference sorts the
   buffer as it then stands. *)
let test_stats_sort_matches_array_sort () =
  let rng = Rng.create ~seed:11 in
  List.iter
    (fun n ->
      for _ = 1 to (if n > 1000 then 2 else 20) do
        let s = Stats.create () in
        let first = random_samples rng n in
        Array.iter (Stats.add s) first;
        let held =
          if n = 0 then begin
            Alcotest.check_raises "empty percentile"
              (Invalid_argument "Stats.percentile: empty") (fun () ->
                ignore (Stats.median s));
            first
          end
          else check_every_rank s first
        in
        let more = random_samples rng (1 + (n / 2)) in
        Array.iter (Stats.add s) more;
        ignore (check_every_rank s (Array.append held more))
      done)
    [ 0; 1; 2; 3; 4; 5; 7; 8; 13; 64; 99; 100; 1001; 48_000 ]

(* A KV run's median and p99 over 48k latencies: the sort works in the
   samples' own buffer and compares unboxed floats.  Major-heap words
   count too, so a copy of the samples (too big for the minor heap)
   would show. *)
let test_stats_sort_allocation b =
  let rng = Rng.create ~seed:12 in
  let s = Stats.create () in
  let n = 48_000 in
  for _ = 1 to n do
    Stats.add s (Rng.float rng 1e-3)
  done;
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = allocated () in
  let p50 = Stats.median s in
  let p99 = Stats.percentile s 99.0 in
  let words = (allocated () -. w0) /. float_of_int n in
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99);
  Alloc_budget.check b "Stats.median + percentile, per sample" ~max:0.001
    words

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:3.0 "c";
  Pqueue.push q ~time:1.0 "a";
  Pqueue.push q ~time:2.0 "b";
  check Alcotest.string "a first" "a" (Pqueue.pop_exn q);
  check Alcotest.string "b second" "b" (Pqueue.pop_exn q);
  check Alcotest.string "c third" "c" (Pqueue.pop_exn q);
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  for i = 0 to 9 do
    Pqueue.push q ~time:1.0 i
  done;
  for i = 0 to 9 do
    if Pqueue.is_empty q then Alcotest.fail "queue exhausted early";
    check Alcotest.int "fifo among ties" i (Pqueue.pop_exn q)
  done

(* An entry pushed at T before the clock reached T waits in the heap;
   entries pushed once the clock is at T go to the ring.  The heap entry
   has the lower sequence number, so it pops first. *)
let test_pqueue_heap_before_ring () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:2.0 "first";
  Pqueue.push q ~time:2.0 "waiting";
  check Alcotest.string "clock reaches T" "first" (Pqueue.pop_exn q);
  Alcotest.(check bool) "heap entry due" true (Pqueue.has_due q);
  Pqueue.push q ~time:2.0 "ring 1";
  Pqueue.push q ~time:2.0 "ring 2";
  Alcotest.(check bool) "still due" true (Pqueue.has_due q);
  List.iter
    (fun want ->
      check Alcotest.string "heap before ring" want (Pqueue.pop_exn q);
      check (Alcotest.float 0.0) "at T" 2.0 (Pqueue.last_time q))
    [ "waiting"; "ring 1"; "ring 2" ];
  Alcotest.(check bool) "nothing due" false (Pqueue.has_due q);
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q)

(* The shape fabric verbs and compute flushes give the engine's queue:
   64 pending events, each pop followed by a push 1-8 us after the popped
   instant.  [push] and [last_time] are inlined and the clock sits in a
   float-only record, so neither the computed time nor the instant a
   pop moves the clock to is ever boxed. *)
let test_pqueue_near_horizon_allocation b =
  let q = Pqueue.create () in
  for i = 0 to 63 do
    Pqueue.push q ~time:(float_of_int (1 + (i * 5 mod 8)) *. 1e-6) i
  done;
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    let v = Pqueue.pop_exn q in
    Pqueue.push q
      ~time:(Pqueue.last_time q +. (float_of_int (1 + (i * 5 mod 8)) *. 1e-6))
      v
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Alloc_budget.check b "near-horizon pop_exn + push at depth 64" ~max:0.5 words

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing time order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun times ->
      let q = Pqueue.create () in
      List.iter (fun t -> Pqueue.push q ~time:t ()) times;
      let rec drain last =
        Pqueue.is_empty q
        ||
        (Pqueue.pop_exn q;
         let t = Pqueue.last_time q in
         t >= last && drain t)
      in
      drain neg_infinity)

(* The ring + heap queue must dispatch in exactly the order a plain
   binary heap would: a stable sort by (time, insertion sequence).
   Commands drive an engine-like interleaved workload that exercises
   both places and the pop between them: pushes at the current instant
   (the FIFO ring, incl. same-timestamp ties), ahead of the clock (the
   heap), and at the next instant a pending entry already holds, so that
   once the clock reaches it heap entries and later ring entries tie on
   time and the sequence number decides; pops advance the clock like
   the engine does.  A push behind the last popped time, or at NaN,
   must raise [Invalid_argument] and leave the queue untouched.  Before
   every command, [has_due] must agree with the model. *)
let prop_pqueue_matches_heap =
  let gen = QCheck.(list (pair (int_bound 10) (int_bound 999))) in
  QCheck.Test.make
    ~name:"pqueue dispatches identically to the reference (time,seq) heap"
    ~count:300 gen
    (fun cmds ->
      let q = Pqueue.create () in
      (* Reference model: insertion-ordered stable sort by time. *)
      let model = ref [] in
      let insert time id =
        let rec go = function
          | ((t', _) as hd) :: tl when t' <= time -> hd :: go tl
          | rest -> (time, id) :: rest
        in
        model := go !model
      in
      let clock = ref 0.0 and next_id = ref 0 and ok = ref true in
      let popped = ref false in
      let rejected time =
        let pushed = Pqueue.pushed q in
        (match Pqueue.push q ~time (-1) with
        | () -> ok := false
        | exception Invalid_argument _ -> ());
        if Pqueue.pushed q <> pushed then
          ok := false
      in
      let do_pop () =
        match !model with
        | [] -> if not (Pqueue.is_empty q) then ok := false
        | (mt, mid) :: rest ->
            if Pqueue.is_empty q then ok := false
            else begin
              let id = Pqueue.pop_exn q in
              let t = Pqueue.last_time q in
              model := rest;
              clock := t;
              popped := true;
              if not (t = mt && id = mid) then ok := false
            end
      in
      List.iter
        (fun (kind, r) ->
          (* Something is due at or before the last popped time. *)
          let due =
            match !model with
            | (mt, _) :: _ -> !popped && mt <= !clock
            | [] -> false
          in
          if not (Bool.equal due (Pqueue.has_due q)) then ok := false;
          let push_at time =
            let id = !next_id in
            incr next_id;
            insert time id;
            Pqueue.push q ~time id
          in
          let push dt = push_at (!clock +. dt) in
          match kind with
          | 0 | 1 | 2 -> push 0.0 (* same-instant FIFO ties *)
          | 3 | 4 -> push (float_of_int r *. 1e-8) (* near horizon *)
          | 5 -> push (float_of_int r *. 1e-6)
          | 6 -> push (float_of_int r *. 1e-3) (* far-future timers *)
          | 10 -> (
              (* A heap/ring tie in the making: the next instant
                 pending ahead of the clock. *)
              match List.find_opt (fun (mt, _) -> mt > !clock) !model with
              | None -> do_pop ()
              | Some (next, _) -> push_at next)
          | 7 ->
              (* Behind the clock: rejected once something was popped. *)
              let dt = -.(float_of_int r *. 1e-7) in
              if !popped && !clock +. dt < !clock then
                rejected (!clock +. dt)
              else push dt
          | 8 when r mod 4 = 0 -> rejected nan
          | _ -> do_pop ())
        cmds;
      while (not (Pqueue.is_empty q)) || !model <> [] do
        do_pop ()
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Units *)

module Units = Drust_util.Units

let test_units_sizes () =
  Alcotest.(check int) "kib" 2048 (Units.kib 2);
  Alcotest.(check int) "mib" (1024 * 1024) (Units.mib 1);
  Alcotest.(check int) "gib" (1024 * 1024 * 1024) (Units.gib 1)

let test_units_pretty () =
  let s pp v = Format.asprintf "%a" pp v in
  Alcotest.(check string) "bytes" "512 B" (s Units.pp_bytes 512);
  Alcotest.(check string) "kib" "1.5 KiB" (s Units.pp_bytes 1536);
  Alcotest.(check string) "mib" "2.0 MiB" (s Units.pp_bytes (Units.mib 2));
  Alcotest.(check string) "ns" "250 ns" (s Units.pp_seconds 250e-9);
  Alcotest.(check string) "us" "3.60 us" (s Units.pp_seconds 3.6e-6);
  Alcotest.(check string) "ms" "1.50 ms" (s Units.pp_seconds 1.5e-3);
  Alcotest.(check string) "mops" "1.20 Mops/s" (s Units.pp_rate 1.2e6);
  Alcotest.(check string) "kops" "3.00 Kops/s" (s Units.pp_rate 3e3)

(* ------------------------------------------------------------------ *)
(* Univ *)

let test_univ_roundtrip () =
  let tag = Univ.create_tag ~name:"int-list" in
  let v = Univ.pack tag [ 1; 2; 3 ] in
  check Alcotest.(list int) "roundtrip" [ 1; 2; 3 ] (Univ.unpack_exn tag v)

let test_univ_mismatch () =
  let ti : int Univ.tag = Univ.create_tag ~name:"int" in
  let ts : string Univ.tag = Univ.create_tag ~name:"string" in
  let v = Univ.pack ti 42 in
  Alcotest.(check bool) "unpack_exn raises" true
    (try
       ignore (Univ.unpack_exn ts v);
       false
     with Univ.Type_mismatch _ -> true)

let test_univ_same_name_distinct () =
  let a : int Univ.tag = Univ.create_tag ~name:"x" in
  let b : int Univ.tag = Univ.create_tag ~name:"x" in
  let v = Univ.pack a 1 in
  Alcotest.(check bool) "same-name tags are distinct" true
    (try
       ignore (Univ.unpack_exn b v);
       false
     with Univ.Type_mismatch _ -> true)

let test_univ_packed_name () =
  let tag : unit Univ.tag = Univ.create_tag ~name:"marker" in
  let other : int Univ.tag = Univ.create_tag ~name:"other" in
  check Alcotest.string "name" "marker"
    (try
       ignore (Univ.unpack_exn other (Univ.pack tag ()));
       ""
     with Univ.Type_mismatch { actual; _ } -> actual)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "golden sequence" `Quick test_rng_golden_sequence;
          Alcotest.test_case "derived draws match bits" `Quick
            test_rng_derived_draws_match_bits;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "range" `Quick test_zipf_range;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "share monotone" `Quick test_zipf_expected_share_monotone;
          Alcotest.test_case "matches expectation" `Quick test_zipf_matches_expectation;
          Alcotest.test_case "invalid args" `Quick test_zipf_invalid_args;
          Alcotest.test_case "memoised, bit-identical" `Quick test_zipf_memo;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/median" `Quick test_stats_mean_median;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "add after percentile" `Quick test_stats_add_after_percentile;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "in-place sort matches Array.sort" `Quick
            test_stats_sort_matches_array_sort;
          Alcotest.test_case "sort allocation budget" `Quick
            (Alloc_budget.case test_stats_sort_allocation);
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "heap entry due before ring" `Quick
            test_pqueue_heap_before_ring;
          Alcotest.test_case "near-horizon allocation budget" `Quick
            (Alloc_budget.case test_pqueue_near_horizon_allocation);
          QCheck_alcotest.to_alcotest prop_pqueue_sorted;
          QCheck_alcotest.to_alcotest prop_pqueue_matches_heap;
        ] );
      ( "units",
        [
          Alcotest.test_case "sizes" `Quick test_units_sizes;
          Alcotest.test_case "pretty" `Quick test_units_pretty;
        ] );
      ( "univ",
        [
          Alcotest.test_case "roundtrip" `Quick test_univ_roundtrip;
          Alcotest.test_case "mismatch" `Quick test_univ_mismatch;
          Alcotest.test_case "same-name distinct" `Quick test_univ_same_name_distinct;
          Alcotest.test_case "packed name" `Quick test_univ_packed_name;
        ] );
    ]
