(** Elastic-membership churn experiment.

    Drives a seeded plan of standby joins, graceful leaves, and
    fail-stop crashes — one injected {e mid-handoff} — against a
    zipf-skewed KV workload, with epoch-stamped client verbs, and
    asserts zero lost committed writes, zero unrecoverable ranges, full
    crash detection, and seed-determinism.  Runs at 64 nodes by default
    (the paper-scale configuration) and at 16 nodes for the CI
    [@churn] alias. *)

type result = Drust_plan.Scenario.churn_result = {
  seed : int;
  nodes : int;
  total_ops : int;
  failed_ops : int;
  lost_writes : int;
      (** keys whose final value fell below their committed floor *)
  unreadable_keys : int;
  joins : int;  (** committed joins *)
  leaves : int;  (** completed graceful leaves *)
  handoff_commits : int;
  handoff_aborts : int;
  final_epoch : int;
  stale_epochs : int;  (** verbs NAKed for carrying an old view epoch *)
  retries : int;
  crashes : (int * float) list;  (** (victim, crash time) *)
  detection : (int * float) list;  (** (victim, crash -> verdict latency) *)
  recovery : (int * float) list;
      (** (victim, crash -> first successful write to a range it served) *)
  handoff_latency : float list;
      (** driver-observed duration of each committed join/leave *)
  unrecoverable : int list;
  op_latency : Drust_obs.Metrics.histo option;
}

val run_once : seed:int -> nodes:int -> unit -> result
(** One seeded churn run (pure function of [seed] and [nodes]):
    builds the canonical plan ({!Drust_plan.Simplan.churn_plan}) and
    [Simplan.execute]s it. *)

val run : ?seed:int -> ?nodes:int -> unit -> result
(** Run the base seed twice (bit-identity check) plus two more seeds,
    print the membership/latency report, record the [churn/*] summary
    entries, and fail on any lost write, unrecoverable range, missed
    detection, missing join/leave, never-aborted sabotage, or
    determinism divergence.  Returns the base-seed result. *)
