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
