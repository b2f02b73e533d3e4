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

(* Sorts [a.(0) .. a.(l - 1)] in place: the ternary-heap sort of
   [Array.sort Float.compare], step for step, so that equal keys (0.0
   and -0.0, or NaNs) land exactly where it puts them.  Specialized to a
   float array and written as loops, the comparisons run on unboxed
   floats and nothing is allocated; [maxson] answers -1 where the
   generic sort raises [Bottom]. *)
let sort_prefix (a : float array) l =
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
      if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
    end
    else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
    else if i31 < l then i31
    else -1
  in
  for i = ((l + 1) / 3) - 1 downto 0 do
    (* trickle: sift [e] down from the hole at [i] *)
    let e = a.(i) in
    let hole = ref i and sifting = ref true in
    while !sifting do
      let j = maxson l !hole in
      if j >= 0 && Float.compare a.(j) e > 0 then begin
        a.(!hole) <- a.(j);
        hole := j
      end
      else sifting := false
    done;
    a.(!hole) <- e
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    (* bubble: move the larger son up until the hole reaches a leaf *)
    let hole = ref 0 and j = ref (maxson i 0) in
    while !j >= 0 do
      a.(!hole) <- a.(!j);
      hole := !j;
      j := maxson i !j
    done;
    (* trickle up: sift [e] up from that leaf *)
    let rising = ref true in
    while !rising do
      let father = (!hole - 1) / 3 in
      if Float.compare a.(father) e < 0 then begin
        a.(!hole) <- a.(father);
        hole := father;
        rising := father > 0
      end
      else rising := false
    done;
    a.(!hole) <- e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let ensure_sorted t =
  if not t.sorted then begin
    sort_prefix t.samples t.len;
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
