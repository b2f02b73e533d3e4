(* Elastic membership under fire: the churn experiment.
   The scenario body lives in Drust_plan.Scenario (a [Simplan] drives
   it) and the seed sweep, determinism pair and percentile table in
   [Chaos]; this module keeps what is its own — the result comparison,
   the printed report, and the robustness assertions.

   A zipf-skewed KV workload runs on a large cluster while a seeded
   driver churns the membership — standby nodes join (each join pulls a
   heap range off the most-loaded member), active members leave
   gracefully (draining write-backs, then handing every served range to
   the least-loaded survivor), and two nodes fail-stop: one on a fixed
   schedule, one injected *mid-handoff* by a watcher that polls the
   in-flight transfer and crashes the departing server between copy
   chunks.  The aborted handoff must fall back to the heartbeat
   detector's ordinary promotion path.

   Clients stamp a routing probe on every operation with the view epoch
   their node last heard ([Membership.known_epoch]); a verb carrying a
   stale epoch is NAKed at serve time ([Fabric.Stale_epoch]) and
   retried by [Fabric.retry_with_backoff] once the announcement lands.

   The run asserts the three headline robustness properties:

   - zero lost committed writes: every key's final value is >= the
     number of acknowledged increments (for crash-affected ranges, >=
     the count as of the last replication sync before the crash —
     asynchronous replication makes no promise about unsynced tails);
   - zero unrecoverable ranges (no cascading chain exhaustion);
   - determinism: two runs with the same seed are bit-identical, under
     any --jobs value.

   Reported latencies: handoff (driver-observed join/leave duration),
   detection (crash -> detector verdict), recovery (crash -> first
   successful write to a range the victim was serving). *)

module Simplan = Drust_plan.Simplan
module Scenario = Drust_plan.Scenario
module Metrics = Drust_obs.Metrics

let plan_of ~seed ~nodes = Simplan.churn_plan ~seed ~nodes ()

let run_once ~seed ~nodes () =
  match (Simplan.execute (plan_of ~seed ~nodes)).Simplan.result with
  | Simplan.Churn_done r -> r
  | Simplan.App_done _ | Simplan.Failover_done _ -> assert false

(* Every field equal, the latency histogram (nan min/max when empty)
   bit for bit. *)
let same_result (a : Scenario.churn_result) b =
  { a with op_latency = None } = { b with op_latency = None }
  && Chaos.same_latency a.op_latency b.op_latency

let phases results =
  let samples of_run = List.concat_map of_run results in
  [
    ("handoff", samples (fun (r : Scenario.churn_result) -> r.handoff_latency));
    ("detection", samples (fun r -> List.map snd r.detection));
    ("recovery", samples (fun r -> List.map snd r.recovery));
  ]

let print (spec : Scenario.churn_spec) (r : Scenario.churn_result) =
  Report.section
    (Printf.sprintf
       "Churn: %d nodes (%d active), %d joins + %d graceful leaves + %d \
        crashes (one mid-handoff), seed %d"
       r.nodes spec.Scenario.ch_active0
       (List.length spec.Scenario.ch_joiners)
       (List.length spec.Scenario.ch_leavers)
       (List.length r.crashes) r.seed);
  Report.table
    ~header:[ "event"; "count" ]
    ~rows:
      [
        [ "joins committed"; string_of_int r.joins ];
        [ "graceful leaves completed"; string_of_int r.leaves ];
        [ "handoffs committed"; string_of_int r.handoff_commits ];
        [ "handoffs aborted (crash fallback)"; string_of_int r.handoff_aborts ];
        [ "final view epoch"; string_of_int r.final_epoch ];
        [ "stale-epoch rejections"; string_of_int r.stale_epochs ];
      ];
  List.iter
    (fun (v, t) ->
      let d =
        match List.assoc_opt v r.detection with
        | Some dt -> Printf.sprintf "detected %.3f ms later" (dt *. 1e3)
        | None -> "NEVER detected"
      in
      let rc =
        match List.assoc_opt v r.recovery with
        | Some dt -> Printf.sprintf "first write recovered %.3f ms later" (dt *. 1e3)
        | None -> "no post-crash write observed"
      in
      Report.note
        (Printf.sprintf "crash: node %d at t=%.1f ms — %s, %s" v (t *. 1e3) d
           rc))
    r.crashes;
  Report.note
    (Printf.sprintf
       "%d ops completed, %d abandoned; %d retries, %d stale-epoch NAKs; %d \
        lost writes, %d unreadable keys, unrecoverable ranges: [%s]"
       r.total_ops r.failed_ops r.retries r.stale_epochs r.lost_writes
       r.unreadable_keys
       (String.concat "; " (List.map string_of_int r.unrecoverable)))

let run ?(seed = 42) ?(nodes = 64) () =
  let spec = Scenario.churn_spec_of ~nodes in
  let duration = spec.Scenario.ch_duration in
  let sweep =
    Chaos.sweep ~seed ~extra_seeds:2 (fun seed -> run_once ~seed ~nodes ())
  in
  let r1 = sweep.Chaos.base in
  Report.emit_plan (plan_of ~seed ~nodes);
  print spec r1;
  Chaos.check_determinism ~experiment:"Churn" ~same:same_result sweep;
  if r1.lost_writes > 0 || r1.unreadable_keys > 0 then
    Printf.ksprintf failwith
      "Churn: %d lost committed write(s), %d unreadable key(s) — a handoff \
       or promotion dropped acknowledged state"
      r1.lost_writes r1.unreadable_keys;
  if r1.unrecoverable <> [] then
    failwith "Churn: replication chain exhausted — unrecoverable ranges";
  if r1.joins < List.length spec.Scenario.ch_joiners then
    Printf.ksprintf failwith "Churn: only %d/%d joins committed" r1.joins
      (List.length spec.Scenario.ch_joiners);
  if r1.leaves < List.length spec.Scenario.ch_leavers then
    Printf.ksprintf failwith "Churn: only %d/%d graceful leaves completed"
      r1.leaves
      (List.length spec.Scenario.ch_leavers);
  if r1.handoff_aborts < 1 then
    failwith "Churn: the mid-handoff crash never aborted a handoff";
  if List.length r1.detection < List.length r1.crashes then
    failwith "Churn: the detector missed a crash";
  if r1.stale_epochs < 1 then
    failwith "Churn: no verb was ever rejected for a stale epoch";
  let histos = Chaos.phase_histos (phases (r1 :: sweep.Chaos.extra)) in
  Chaos.percentile_table ~experiment:"Churn" ~count:"samples" histos;
  Report.record_rate ?latency:r1.op_latency ~host_ms:sweep.Chaos.host_ms
    ~experiment:"churn/ops" ~ops:(float_of_int r1.total_ops)
    ~elapsed:duration ();
  List.iter
    (fun (phase, h) ->
      Report.record_rate ~latency:h ~experiment:("churn/" ^ phase)
        ~ops:(float_of_int h.Metrics.h_count)
        ~elapsed:duration ())
    histos;
  r1
