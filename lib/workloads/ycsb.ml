module Rng = Drust_util.Rng
module Zipf = Drust_util.Zipf

type op =
  | Get of int
  | Set of int
  | Insert of int
  | Scan of int * int
  | Rmw of int

type workload = A | B | C | D | E | F

let workload_name = function
  | A -> "A (50/50 update)"
  | B -> "B (95/5 read-mostly)"
  | C -> "C (read-only)"
  | D -> "D (read-latest)"
  | E -> "E (short scans)"
  | F -> "F (read-modify-write)"

let all_workloads = [ A; B; C; D; E; F ]

type mix = Paper of float (* get ratio *) | Core of workload

type t = {
  zipf : Zipf.t;
  mix : mix;
  rng : Rng.t;
  mutable inserted : int; (* grows under D/E inserts *)
}

let create ~keys ~seed () =
  {
    zipf = Zipf.create ~n:keys ~theta:0.99;
    mix = Paper 0.9;
    rng = Rng.create ~seed;
    inserted = 0;
  }

let with_zipf ~zipf ~get_ratio ~seed =
  if get_ratio < 0.0 || get_ratio > 1.0 then
    invalid_arg "Ycsb.with_zipf: get_ratio out of range";
  { zipf; mix = Paper get_ratio; rng = Rng.create ~seed; inserted = 0 }

let create_workload w ?zipf ~keys ~seed () =
  let zipf =
    match zipf with Some z -> z | None -> Zipf.create ~n:keys ~theta:0.99
  in
  { zipf; mix = Core w; rng = Rng.create ~seed; inserted = 0 }

let keys t = Zipf.n t.zipf

let sample_key t = Zipf.sample t.zipf t.rng

(* Workload D reads skew toward the most recently inserted keys: map a
   zipf rank onto the key space from the insertion frontier backwards. *)
let latest_key t =
  let n = keys t in
  let frontier = (t.inserted + n) mod (2 * n) in
  let back = Zipf.sample t.zipf t.rng in
  ((frontier - back) mod n + n) mod n

let insert_key t =
  let k = t.inserted mod keys t in
  t.inserted <- t.inserted + 1;
  k

let next t =
  let p = Rng.float t.rng 1.0 in
  match t.mix with
  | Paper get_ratio ->
      let key = sample_key t in
      if p < get_ratio then Get key else Set key
  | Core A -> if p < 0.5 then Get (sample_key t) else Set (sample_key t)
  | Core B -> if p < 0.95 then Get (sample_key t) else Set (sample_key t)
  | Core C -> Get (sample_key t)
  | Core D -> if p < 0.95 then Get (latest_key t) else Insert (insert_key t)
  | Core E ->
      if p < 0.95 then Scan (sample_key t, 1 + Rng.int t.rng 100)
      else Insert (insert_key t)
  | Core F -> if p < 0.5 then Get (sample_key t) else Rmw (sample_key t)

let hot_share t ~k = Zipf.expected_top_share t.zipf ~k
