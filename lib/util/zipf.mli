(** Zipfian key sampling.

    The KV-store evaluation in the paper drives its YCSB load with the
    default skewness parameter 0.99; this module provides the corresponding
    generator.  We use the classic YCSB/Gray et al. closed-form sampler,
    which needs only the generalized harmonic number of the key-space size
    and draws each sample in O(1). *)

type t
(** An immutable sampler description over keys [0 .. n-1]. *)

val create : n:int -> theta:float -> t
(** [create ~n ~theta] prepares a zipf sampler over [n] items with skew
    [theta] (YCSB default 0.99).  [n] must be positive and [theta] must lie
    in (0, 1).  Preparing costs O(n), so samplers are memoised
    process-wide: a later call with the same [n] and a bit-identical
    [theta] returns the same (immutable) record. *)

val n : t -> int
(** Key-space size. *)

val sample : t -> Rng.t -> int
(** [sample t rng] draws a key in [\[0, n)], key 0 being the most popular. *)

val expected_top_share : t -> k:int -> float
(** [expected_top_share t ~k] is the probability mass carried by the [k]
    most popular keys — handy for sanity checks and skew-sensitivity
    experiments. *)
