(* splitmix64 (Steele, Lea & Flood, OOPSLA'14) over unboxed state.

   The generator sits on the hot path of every simulated event (latency
   jitter, fault injection, workload key choice), and a [mutable int64]
   record field is a boxing trap: each write allocates a fresh 8-byte
   Int64 block and goes through [caml_modify].  The state is therefore
   kept as two immediate 32-bit halves ([s_hi], [s_lo]) in native ints;
   all arithmetic below is 32-bit-pair arithmetic and never allocates.

   The 64-bit multiplications are schoolbook products over 16-bit limbs:
   every partial product is at most [4 * (2^16 - 1)^2 < 2^34], so the
   running sums fit comfortably in OCaml's 63-bit native int with no
   overflow.  The sequence is bit-identical to the Int64 reference
   implementation (test/test_rng.ml keeps both honest). *)

let mask32 = 0xFFFFFFFF

type t = {
  mutable s_hi : int; (* state, bits 32..63 *)
  mutable s_lo : int; (* state, bits 0..31 *)
  mutable z_hi : int; (* last mixed output, bits 32..63 *)
  mutable z_lo : int; (* last mixed output, bits 0..31 *)
}

(* golden gamma 0x9E3779B97F4A7C15 *)
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15

(* multiplier 0xBF58476D1CE4E5B9, 16-bit limbs, least significant first *)
let m1_0 = 0xE5B9
let m1_1 = 0x1CE4
let m1_2 = 0x476D
let m1_3 = 0xBF58

(* multiplier 0x94D049BB133111EB, 16-bit limbs, least significant first *)
let m2_0 = 0x11EB
let m2_1 = 0x1331
let m2_2 = 0x49BB
let m2_3 = 0x94D0

let create ~seed =
  {
    s_hi = (seed asr 32) land mask32;
    s_lo = seed land mask32;
    z_hi = 0;
    z_lo = 0;
  }

(* Advance the counter and mix it into [z_hi]/[z_lo].  Straight-line on
   purpose: a helper returning a (hi, lo) pair would box a tuple per
   draw, which is exactly the allocation this representation removes. *)
let step t =
  (* state += gamma, with carry out of the low half *)
  let lo = t.s_lo + gamma_lo in
  let s_lo = lo land mask32 in
  let s_hi = (t.s_hi + gamma_hi + (lo lsr 32)) land mask32 in
  t.s_lo <- s_lo;
  t.s_hi <- s_hi;
  (* z ^= z >> 30 *)
  let x_hi = s_hi lxor (s_hi lsr 30) in
  let x_lo = s_lo lxor (((s_hi lsl 2) lor (s_lo lsr 30)) land mask32) in
  (* z *= 0xBF58476D1CE4E5B9 *)
  let a0 = x_lo land 0xFFFF and a1 = x_lo lsr 16 in
  let a2 = x_hi land 0xFFFF and a3 = x_hi lsr 16 in
  let p0 = a0 * m1_0 in
  let p1 = (a0 * m1_1) + (a1 * m1_0) + (p0 lsr 16) in
  let p2 = (a0 * m1_2) + (a1 * m1_1) + (a2 * m1_0) + (p1 lsr 16) in
  let p3 = (a0 * m1_3) + (a1 * m1_2) + (a2 * m1_1) + (a3 * m1_0) + (p2 lsr 16) in
  let y_lo = ((p1 land 0xFFFF) lsl 16) lor (p0 land 0xFFFF) in
  let y_hi = ((p3 land 0xFFFF) lsl 16) lor (p2 land 0xFFFF) in
  (* z ^= z >> 27 *)
  let w_hi = y_hi lxor (y_hi lsr 27) in
  let w_lo = y_lo lxor (((y_hi lsl 5) lor (y_lo lsr 27)) land mask32) in
  (* z *= 0x94D049BB133111EB *)
  let a0 = w_lo land 0xFFFF and a1 = w_lo lsr 16 in
  let a2 = w_hi land 0xFFFF and a3 = w_hi lsr 16 in
  let p0 = a0 * m2_0 in
  let p1 = (a0 * m2_1) + (a1 * m2_0) + (p0 lsr 16) in
  let p2 = (a0 * m2_2) + (a1 * m2_1) + (a2 * m2_0) + (p1 lsr 16) in
  let p3 = (a0 * m2_3) + (a1 * m2_2) + (a2 * m2_1) + (a3 * m2_0) + (p2 lsr 16) in
  let v_lo = ((p1 land 0xFFFF) lsl 16) lor (p0 land 0xFFFF) in
  let v_hi = ((p3 land 0xFFFF) lsl 16) lor (p2 land 0xFFFF) in
  (* z ^= z >> 31 *)
  t.z_hi <- v_hi lxor (v_hi lsr 31);
  t.z_lo <- v_lo lxor (((v_hi lsl 1) lor (v_lo lsr 31)) land mask32)

let bits64 t =
  step t;
  Int64.logor
    (Int64.shift_left (Int64.of_int t.z_hi) 32)
    (Int64.of_int t.z_lo)

let split t =
  step t;
  { s_hi = t.z_hi; s_lo = t.z_lo; z_hi = 0; z_lo = 0 }

let copy t = { s_hi = t.s_hi; s_lo = t.s_lo; z_hi = t.z_hi; z_lo = t.z_lo }

(* The top 62 bits of the output, a non-negative OCaml int. *)
let nonneg t =
  step t;
  (t.z_hi lsl 30) lor (t.z_lo lsr 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  nonneg t mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* The top 53 bits of a fresh output: [mantissa t /. 2^53] is a uniform
   float in [0, 1).  Returning the int keeps callers that finish the
   arithmetic themselves free of a boxed intermediate float. *)
let mantissa t =
  step t;
  (t.z_hi lsl 21) lor (t.z_lo lsr 11)

let float t bound = bound *. (Float.of_int (mantissa t) /. 9007199254740992.0)

let bool t =
  step t;
  t.z_lo land 1 = 1

let bernoulli t ~p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-300 else u in
  -.mean *. log u

(* Box-Muller over two uniforms; [1.0 *. x = x], so [u1] and [u2] are
   exactly [float t 1.0], drawn in the same order, with no float boxed
   between the draws. *)
let gaussian t ~mu ~sigma =
  let u1 = Float.of_int (mantissa t) /. 9007199254740992.0 in
  let u2 = Float.of_int (mantissa t) /. 9007199254740992.0 in
  let u1 = if u1 <= 0.0 then 1e-300 else u1 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
