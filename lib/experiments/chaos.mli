(** The harness the chaos experiments ({!Failover}, {!Churn}) share: one
    seed sweep with its determinism pair, one path from per-phase
    latency samples to p50/p99, and one percentile table with its
    checks.  Each experiment keeps only its own result comparison,
    printed report and robustness assertions. *)

type 'a sweep = {
  base : 'a;  (** the base seed's run *)
  repeat : 'a;  (** the base seed again: must equal [base] *)
  extra : 'a list;  (** one run per extra seed, in seed order *)
  host_ms : float;
      (** host wall-clock of the whole sweep; feeds only the opt-in
          [host_ms] summary column *)
}

val sweep : seed:int -> extra_seeds:int -> (int -> 'a) -> 'a sweep
(** Run [seed] twice, then [seed + 1] .. [seed + extra_seeds], over
    {!Parallel.run} (results in that order for every [--jobs] value),
    timed by {!Drust_util.Host_clock.timed}. *)

val check_determinism :
  experiment:string -> same:('a -> 'a -> bool) -> 'a sweep -> unit
(** Fail ["<experiment>: two runs with the same seed diverged —
    determinism bug"] unless [same base repeat]; otherwise print the
    bit-identity note. *)

val same_latency :
  Drust_obs.Metrics.histo option -> Drust_obs.Metrics.histo option -> bool
(** Two runs' [op_latency] distributions agree: counts and bucket counts
    exactly, sum/min/max bit for bit (so [nan] equals [nan]). *)

val phase_histos :
  (string * float list) list -> (string * Drust_obs.Metrics.histo) list
(** Fold each phase's latency samples (seconds, in order) into a
    snapshot histogram over the one millisecond-scale bucket set. *)

val percentile_table :
  experiment:string ->
  count:string ->
  (string * Drust_obs.Metrics.histo) list ->
  unit
(** Print the [phase | <count> | p50 (ms) | p99 (ms)] table (quantiles
    via {!Drust_obs.Metrics.quantile}), then fail
    (naming [experiment]) if a phase has no samples or its p99 is below
    its p50. *)
