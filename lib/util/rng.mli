(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    splitmix64, which is fast, has a full 2^64 period, and allows cheap
    [split]ting into independent streams (one per simulated node or thread). *)

type t
(** A mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a fresh generator from [seed]. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Streams produced by repeated [split] are statistically independent. *)

val bits64 : t -> int64
(** [bits64 t] returns the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] samples an exponential distribution, used for
    request inter-arrival jitter. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** [gaussian t ~mu ~sigma] samples a normal distribution (Box-Muller),
    used for latency jitter around calibrated means. *)


val choose : t -> 'a array -> 'a
(** [choose t a] picks a uniform element.  [a] must be non-empty. *)
