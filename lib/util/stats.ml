type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { samples = Array.make 64 0.0; len = 0; sorted = true }

let add t x =
  if t.len = Array.length t.samples then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len

let total t =
  let acc = ref 0.0 in
  for i = 0 to t.len - 1 do
    acc := !acc +. t.samples.(i)
  done;
  !acc

let mean t = if t.len = 0 then 0.0 else total t /. Float.of_int t.len

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.samples.(i)
  done;
  !acc

let min_value t = fold Float.min Float.infinity t
let max_value t = fold Float.max Float.neg_infinity t

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.len in
    Array.sort Float.compare live;
    Array.blit live 0 t.samples 0 t.len;
    t.sorted <- true
  end

let percentile t p =
  if t.len = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  ensure_sorted t;
  let rank = Float.to_int (ceil (p /. 100.0 *. Float.of_int t.len)) in
  let idx = if rank <= 0 then 0 else rank - 1 in
  t.samples.(min idx (t.len - 1))

let median t = percentile t 50.0

let stddev t =
  if t.len < 2 then 0.0
  else begin
    let m = mean t in
    let sq = fold (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 t in
    sqrt (sq /. Float.of_int (t.len - 1))
  end

let merge a b =
  let m = create () in
  for i = 0 to a.len - 1 do
    add m a.samples.(i)
  done;
  for i = 0 to b.len - 1 do
    add m b.samples.(i)
  done;
  m

let clear t =
  t.len <- 0;
  t.sorted <- true

module Histogram = struct
  type h = { bounds : float array; counts : int array; mutable total : int }

  let create ~buckets =
    let ok = ref true in
    for i = 1 to Array.length buckets - 1 do
      if buckets.(i) <= buckets.(i - 1) then ok := false
    done;
    if not !ok then invalid_arg "Histogram.create: bounds not increasing";
    { bounds = Array.copy buckets;
      counts = Array.make (Array.length buckets + 1) 0;
      total = 0 }

  let add h x =
    let n = Array.length h.bounds in
    let rec find lo hi =
      (* First bucket whose bound is >= x, by binary search. *)
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if x <= h.bounds.(mid) then find lo mid else find (mid + 1) hi
    in
    let idx = find 0 n in
    h.counts.(idx) <- h.counts.(idx) + 1;
    h.total <- h.total + 1

  let counts h = Array.copy h.counts
  let bounds h = Array.copy h.bounds
  let total h = h.total
end
