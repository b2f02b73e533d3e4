(** Availability-under-crash experiment.

    Runs a pinned-key KV workload on 4 nodes while the fault plan crashes
    a primary mid-flight; the controller's heartbeat detector declares it
    dead and promotes the backups with {e zero} application involvement.
    Reports detection latency, recovery time, and a throughput
    dip-and-recover curve. *)

val phases :
  Drust_plan.Scenario.failover_result list -> (string * float list) list
(** The ["detection"] and ["recovery"] latency samples (seconds after
    each run's crash), in run order; a run whose detector or recovery
    never fired contributes no sample.  The input of
    {!Chaos.phase_histos}. *)

val run : ?seed:int -> unit -> Drust_plan.Scenario.failover_result
(** Run the base seed twice (bit-identity check) plus four more seeds,
    print the curve, per-phase p50/p99 failover latencies, and fail if
    the detector never fired, recovery never happened, the same-seed
    runs diverged, or p99 < p50.  Emits the base-seed plan artifact
    ({!Report.emit_plan}) next to the results.  Returns the base-seed
    result. *)
