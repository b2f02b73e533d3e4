(** Elastic-membership churn experiment.

    Drives a seeded plan of standby joins, graceful leaves, and
    fail-stop crashes — one injected {e mid-handoff} — against a
    zipf-skewed KV workload, with epoch-stamped client verbs, and
    asserts zero lost committed writes, zero unrecoverable ranges, full
    crash detection, and seed-determinism.  Runs at 64 nodes by default
    (the paper-scale configuration) and at 16 nodes for the CI
    [@churn] alias. *)

val phases :
  Drust_plan.Scenario.churn_result list -> (string * float list) list
(** The ["handoff"], ["detection"] and ["recovery"] latency samples
    (seconds) of the runs, in run order — the input of
    {!Chaos.phase_histos}. *)

val run :
  ?seed:int -> ?nodes:int -> unit -> Drust_plan.Scenario.churn_result
(** Run the base seed twice (bit-identity check) plus two more seeds,
    each a [Simplan.execute] of {!Drust_plan.Simplan.churn_plan},
    print the membership/latency report, record the [churn/*] summary
    entries, and fail on any lost write, unrecoverable range, missed
    detection, missing join/leave, never-aborted sabotage, or
    determinism divergence.  Returns the base-seed result. *)
