(** Table rendering for the benchmark harness.

    Every experiment prints a fixed-width table of measured values next to
    the numbers the paper reports, so paper-vs-measured comparison (and
    EXPERIMENTS.md) can be regenerated mechanically. *)

val set_csv_dir : string option -> unit
(** When set, every {!table} is also written as
    [<dir>/<section-slug>.csv] (created if missing) so results can be
    plotted downstream. *)

val section : string -> unit
(** Print a banner for one experiment. *)

val table : header:string list -> rows:string list list -> unit
(** Fixed-width table; column widths derived from contents. *)

val cell_f : float -> string
(** Format a ratio/speedup with 2 decimals. *)

val cell_pct : float -> string
(** Format a fraction as a percentage. *)

val cell_rate : float -> string
(** Human-readable ops/s. *)

val cell_time : float -> string
(** Human-readable duration. *)

val note : string -> unit

(** {1 Benchmark summary}

    Experiments report one headline rate each, optionally with an
    operation-latency histogram; [bench/main.exe] writes the collected
    registry as [BENCH_summary.json] at exit (schema
    {!schema_version}, documented in docs/BENCHMARKS.md). *)

val schema_version : string
(** The summary schema this build writes and the only one
    {!read_bench_summary} accepts: ["drust-bench-summary/v3"]. *)

val set_host_time_recording : bool -> unit
(** Enable capturing [?host_ms] values passed to {!record_rate}
    (default off).  Host time is machine-dependent, so it is kept out
    of summaries unless a host-gating run — the [@bench-diff] alias
    via [bench/main.exe --host-time] — asks for it; plain runs stay
    byte-identical across machines and [--jobs] values. *)

val record_rate :
  ?latency:Drust_obs.Metrics.histo ->
  ?host_ms:float ->
  ?host_rate:float ->
  experiment:string ->
  ops:float ->
  elapsed:float ->
  unit ->
  unit
(** Register [ops /. elapsed] (operations per {e simulated} second)
    under [experiment], optionally with the run's operation-latency
    histogram (surfaced in the summary as [latency_us] p50, p95, p99
    and p99.9),
    its host wall-clock cost in milliseconds, and the profiler's engine
    throughput in dispatched events per host second ([host_ms] and
    [host_rate] are dropped unless {!set_host_time_recording} is on).
    Re-recording an experiment overwrites it in place; non-positive
    [elapsed] is ignored.  Safe to call from {!Parallel} sweep domains
    (mutex-protected). *)

val recorded_rates : unit -> (string * float) list
(** The registry so far, sorted by experiment name (so the summary is
    byte-identical regardless of recording order or [--jobs]), reduced
    to the headline rates. *)

val write_bench_summary : path:string -> unit
(** Write the registry as JSON to [path] (via {!Drust_util.Json}). *)

val emit_plan : Drust_plan.Simplan.t -> unit
(** Write the plan that describes a run as [<name>.plan.json] next to
    the results (the CSV directory when {!set_csv_dir} is active, the
    working directory otherwise), so the exact scenario behind any
    result can be replayed with [--plan]. *)

(** {2 Reading and regression comparison}

    The [tools/bench_diff.exe] gate reads two summaries and fails on
    per-entry relative regressions. *)

type summary_entry = {
  se_rate : float;  (** [ops_per_sim_sec] *)
  se_latency_us : (string * float) list;
      (** percentile label -> µs; empty for entries without a
          histogram *)
  se_host_ms : float option;
      (** host wall-clock ms; [None] for runs without [--host-time] *)
  se_host_rate : float option;
      (** engine throughput in dispatched events per host second;
          [None] unless the entry came from a [--host-time] profile
          run *)
}

type summary = {
  sm_schema : string;
  sm_entries : (string * summary_entry) list;
}

val read_bench_summary : path:string -> (summary, string) result
(** Decode a summary file through the strict {!Drust_util.Json} codec
    {!write_bench_summary} encodes with: [Error "<file>: <path>:
    <problem>"] on unreadable input, another schema, an unknown or
    duplicate key, or a wrongly typed field. *)

val summary_keys : string list
(** Every key a summary can carry: its codec's field names and the
    latency percentile labels, sorted (check 11 of tools/check_docs.ml). *)

val compare_summaries :
  ?tolerance:float ->
  ?tolerance_host:float ->
  baseline:summary ->
  summary ->
  string list
(** [compare_summaries ~baseline current]: one description per
    regression — a baseline entry missing from [current], a throughput
    drop below [baseline * (1 - tolerance)], a latency percentile
    above [baseline * (1 + tolerance)], a host time above
    [baseline * (1 + tolerance_host)] (checked only when both sides
    carry [host_ms]), or a host engine throughput below
    [baseline / (1 + tolerance_host)] (both sides carrying
    [host_events_per_sec]).  [tolerance] defaults to 0.10; [tolerance_host]
    defaults to 2.0 — host time is wall-clock, so only a 3x blowup
    counts as a regression, not scheduler noise.  An empty list means
    no regression. *)

(** {1 Metrics snapshots} *)

val metrics_table : ?prefix:string -> Drust_obs.Metrics.snapshot -> unit
(** Render a snapshot as a table, one row per (name, labels) sample;
    histogram rows additionally fill the p50/p95/p99 columns (via
    {!Drust_obs.Metrics.quantile}, in the metric's own unit).
    [prefix] filters by metric-name prefix.  Empty selections print
    nothing. *)
