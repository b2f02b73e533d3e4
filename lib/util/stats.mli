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
val total : t -> float
val mean : t -> float
(** [mean t] is 0 when no sample was recorded. *)

val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 100\]], nearest-rank on the sorted
    samples.  Raises [Invalid_argument] on an empty collection. *)

val median : t -> float
val stddev : t -> float

val merge : t -> t -> t
(** [merge a b] is a fresh collection holding both sample sets. *)

val clear : t -> unit

(** {1 Histograms} *)

module Histogram : sig
  type h

  val create : buckets:float array -> h
  (** [create ~buckets] with strictly increasing upper bounds; an implicit
      overflow bucket collects everything above the last bound. *)

  val add : h -> float -> unit
  val counts : h -> int array
  (** Length is [Array.length buckets + 1] (overflow last). *)

  val bounds : h -> float array
  val total : h -> int
end
