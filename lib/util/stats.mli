(** Sample statistics for latency/throughput reporting.

    Every table in the paper's evaluation reports either a throughput
    (normalized to a baseline) or a latency distribution (average, median,
    P90).  This module collects raw samples and computes those summaries. *)

type t
(** A mutable collection of float samples. *)

val create : unit -> t

val add : t -> float -> unit
(** [add t x] records one sample. *)

val count : t -> int

val mean : t -> float
(** [mean t] is 0 when no sample was recorded. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 100\]], nearest-rank on the sorted
    samples.  Raises [Invalid_argument] on an empty collection. *)

val median : t -> float
