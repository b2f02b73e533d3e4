(* splitmix64 (Steele, Lea & Flood, OOPSLA'14).

   The generator sits on the hot path of every simulated event (latency
   jitter, fault injection, workload key choice), and a [mutable int64]
   record field is a boxing trap: each write allocates a fresh 8-byte
   Int64 block and goes through [caml_modify].  The state and the last
   output are therefore stored as immediate 32-bit halves in native ints,
   and [step] does the textbook 64-bit arithmetic on [Int64] locals,
   which the native compiler keeps unboxed.  The sequence is the Int64
   reference implementation's (test/test_util.ml keeps both honest). *)

let mask32 = 0xFFFFFFFF

type t = {
  mutable s_hi : int; (* state, bits 32..63 *)
  mutable s_lo : int; (* state, bits 0..31 *)
  mutable z_hi : int; (* last mixed output, bits 32..63 *)
  mutable z_lo : int; (* last mixed output, bits 0..31 *)
}

let create ~seed =
  {
    s_hi = (seed asr 32) land mask32;
    s_lo = seed land mask32;
    z_hi = 0;
    z_lo = 0;
  }

let[@inline] join hi lo =
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let[@inline] high x = Int64.to_int (Int64.shift_right_logical x 32)
let[@inline] low x = Int64.to_int x land mask32

(* Advance the state by the golden gamma and mix it into [z_hi]/[z_lo]. *)
let step t =
  let s = Int64.add (join t.s_hi t.s_lo) 0x9E3779B97F4A7C15L in
  t.s_hi <- high s;
  t.s_lo <- low s;
  let z =
    Int64.mul
      (Int64.logxor s (Int64.shift_right_logical s 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  t.z_hi <- high z;
  t.z_lo <- low z

let bits64 t =
  step t;
  join t.z_hi t.z_lo

let split t =
  step t;
  { s_hi = t.z_hi; s_lo = t.z_lo; z_hi = 0; z_lo = 0 }


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
let[@inline] mantissa t =
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
let[@inline] gaussian t ~mu ~sigma =
  let u1 = Float.of_int (mantissa t) /. 9007199254740992.0 in
  let u2 = Float.of_int (mantissa t) /. 9007199254740992.0 in
  let u1 = if u1 <= 0.0 then 1e-300 else u1 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
