type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  zeta2 : float;
}

let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (Float.of_int i) theta)
  done;
  !acc

let compute ~n ~theta =
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. Float.of_int n) (1.0 -. theta))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { n; theta; alpha; zetan; eta; zeta2 }

(* The normaliser [zeta n theta] is an O(n) sum (about 0.2 s at n = 4M)
   and the KV store builds its sampler on every run.  A [t] is immutable,
   so one per (n, theta) is shared; theta is keyed by its bits, so only a
   bit-identical float hits.  The first record stored for a key is the
   one every later [create] returns, even when two domains race to
   compute it. *)
let memo : (int * int64, t) Hashtbl.t = Hashtbl.create 8
[@@dlint.allow
  "globals: a memo of immutable samplers keyed by their full definition \
   (n and the bits of theta); it changes no result and inserts are \
   mutex-protected"]

let memo_mutex = Mutex.create ()

let create ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if theta <= 0.0 || theta >= 1.0 then
    invalid_arg "Zipf.create: theta must be in (0, 1)";
  let key = (n, Int64.bits_of_float theta) in
  match Mutex.protect memo_mutex (fun () -> Hashtbl.find_opt memo key) with
  | Some t -> t
  | None ->
      let t = compute ~n ~theta in
      Mutex.protect memo_mutex (fun () ->
          match Hashtbl.find_opt memo key with
          | Some first -> first
          | None ->
              Hashtbl.replace memo key t;
              t)

let n t = t.n

let sample t rng =
  let u = Rng.float rng 1.0 in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. Float.pow 0.5 t.theta then 1
  else
    let k =
      Float.to_int
        (Float.of_int t.n
        *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha)
    in
    (* Floating-point slack can land exactly on n. *)
    if k >= t.n then t.n - 1 else if k < 0 then 0 else k

let expected_top_share t ~k =
  let k = min k t.n in
  zeta k t.theta /. t.zetan
