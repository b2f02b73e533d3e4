(** Unified metrics registry.

    Every layer of the system (fabric verbs, protocol moves, cache
    hits/misses, controller decisions) reports into one [Metrics.t] of
    named, labelled instruments — counters, gauges, and histograms — so
    experiments and the CLI read a single snapshot instead of poking at
    per-module counter structs.

    Conventions (see docs/OBSERVABILITY.md for the full catalogue):
    - names are dotted, [layer.metric] ("fabric.reads", "cache.hits");
    - labels identify the sub-series ([("node", "3")]); a registry is
      per-cluster, so no cluster label is needed;
    - recording is {e observational only}: nothing here touches the
      simulation engine or any RNG, so instrumented and uninstrumented
      runs are bit-identical.

    Recording allocates nothing. *)

type t
(** A registry. *)

type labels = (string * string) list
(** Label set; normalized (sorted by key) on registration. *)

type counter
type gauge
type histogram

val create : unit -> t
(** Fresh, empty registry. *)

(** {1 Registration}

    Registering the same (name, labels) pair twice returns the existing
    instrument (handles are shared); registering it with a different
    instrument kind raises [Invalid_argument]. *)

val counter : t -> ?labels:labels -> ?unit_:string -> string -> counter
(** Monotonic event count ([unit_] e.g. "ops", "bytes"). *)

val gauge : t -> ?labels:labels -> ?unit_:string -> string -> gauge
(** Instantaneous level (e.g. cache bytes in use). *)

val histogram :
  t -> ?buckets:float array -> ?labels:labels -> ?unit_:string -> string -> histogram
(** Distribution with cumulative-style buckets: [buckets] are upper
    bounds, ascending; samples above the last bound land in an implicit
    overflow bucket.  Default buckets suit latencies in seconds
    (1us .. 100ms, log-spaced). *)

(** {1 Recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit
(** Count one sample.  Inlined, so a sample the caller computes is
    never boxed. *)

(** {1 Reading} *)

val value : counter -> int

(** {1 Snapshots} *)

type histo = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** [nan] when empty *)
  h_max : float;  (** [nan] when empty *)
  h_buckets : (float * int) list;  (** (upper bound, count per bucket), plus ([infinity], overflow) *)
}

type value = Count of int | Level of float | Histo of histo

type sample = {
  s_name : string;
  s_labels : labels;
  s_unit : string;
  s_value : value;
}

type snapshot = sample list
(** Sorted by (name, labels): deterministic, diffable. *)

val snapshot : t -> snapshot

val quantile : histo -> float -> float option
(** [quantile h q] estimates the [q]-quantile ([q] in [0,1]) of the
    samples folded into a snapshot histogram: find the bucket holding
    the nearest-rank sample, then interpolate linearly between the
    bucket's edges by rank position.  The overflow bucket's upper edge
    is the observed max; results are clamped to [[h_min, h_max]].
    Returns [None] on an empty histogram (there is no sample to rank —
    callers must render the absence explicitly rather than propagate a
    [nan]); raises [Invalid_argument] when [q] is outside [0,1].
    Deterministic: depends only on the bucket counts and observed
    min/max, so estimates merge consistently across clusters (see
    {!merge_histos}). *)

val merge_histos : histo -> histo -> histo
(** Combine two snapshot histograms with identical bucket bounds:
    counts and sums add, min/max widen (an empty side is the identity).
    Associative and commutative on counts, which is what makes
    per-cluster latency histograms safe to aggregate before taking
    {!quantile}s.  Raises [Invalid_argument] on differing bounds. *)

val merged_histo : snapshot -> string -> histo option
(** Merge every non-empty histogram sample named [name] (one per label
    set) in a snapshot into a single distribution via {!merge_histos};
    [None] when the snapshot holds no such samples. *)

val names : t -> string list
(** Distinct registered metric names, sorted — the registry side of the
    docs-catalogue check. *)

val total : snapshot -> string -> int
(** Sum of all [Count] samples with this name across label sets. *)

val find : snapshot -> ?labels:labels -> string -> value option
(** Exact (name, labels) lookup. *)
