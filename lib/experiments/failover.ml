(* Availability under a crash: the repo's first end-to-end chaos run.
   The scenario body lives in Drust_plan.Scenario (a [Simplan] drives
   it) and the seed sweep, determinism pair and percentile table in
   [Chaos]; this module keeps what is its own — the result comparison,
   the printed curve, and the robustness assertions.

   A small KV workload (pinned keys spread round-robin, one client per
   node) runs while the fault plan crashes a primary mid-flight.  Nothing
   calls [Replication.fail_and_promote]: the controller's heartbeat
   detector notices the missed probes, promotes the backups, and the
   clients' retried operations land on the promoted server.  The output
   is a throughput-over-time curve with the dip-and-recover shape, plus
   the two latencies that characterize the failover path:

   - detection latency: injected crash -> detector verdict;
   - recovery time: injected crash -> first successful write to a key
     homed on the dead node.

   The whole run is a pure function of the seed; [run] executes it twice
   and insists the results are bit-identical. *)

module Simplan = Drust_plan.Simplan
module Scenario = Drust_plan.Scenario

let duration = Scenario.default_failover.Scenario.fo_duration

let plan_of ~seed = Simplan.failover_plan ~seed ()

let run_once seed =
  match (Simplan.execute (plan_of ~seed)).Simplan.result with
  | Simplan.Failover_done r -> r
  | Simplan.App_done _ | Simplan.Churn_done _ -> assert false

(* Every field equal, the latency histogram (nan min/max when empty)
   bit for bit. *)
let same_result (a : Scenario.failover_result) b =
  { a with op_latency = None } = { b with op_latency = None }
  && Chaos.same_latency a.op_latency b.op_latency

let phases results =
  let since_crash at =
    List.filter_map
      (fun (r : Scenario.failover_result) ->
        Option.map (fun t -> t -. r.crash_time) (at r))
      results
  in
  [
    ("detection", since_crash (fun r -> r.detection_time));
    ("recovery", since_crash (fun r -> r.recovery_time));
  ]

let bar n scale =
  String.make (min 60 (int_of_float (float_of_int n /. scale))) '#'

let print (r : Scenario.failover_result) =
  Report.section
    (Printf.sprintf
       "Failover: crash node %d at t=%.0f ms, heartbeat detection, automatic \
        promotion (seed %d)"
       r.victim (r.crash_time *. 1e3) r.seed);
  let peak = Array.fold_left max 1 r.curve in
  let scale = float_of_int peak /. 50.0 in
  Report.table
    ~header:[ "t (ms)"; "ops"; "throughput" ]
    ~rows:
      (List.mapi
         (fun i n ->
           [
             Printf.sprintf "%5.1f" (float_of_int i *. r.bucket *. 1e3);
             string_of_int n;
             bar n scale;
           ])
         (Array.to_list r.curve));
  let ms label = function
    | Some t ->
        Report.note
          (Printf.sprintf "%s: %.3f ms after the crash" label
             ((t -. r.crash_time) *. 1e3))
    | None -> Report.note (Printf.sprintf "%s: NEVER" label)
  in
  ms "detection latency" r.detection_time;
  ms "recovery time (first write served by promoted backup)" r.recovery_time;
  Report.note
    (Printf.sprintf
       "%d ops completed, %d abandoned; %d retries, %d timeouts, %d drops"
       r.total_ops r.failed_ops r.retries r.timeouts r.drops)

let run ?(seed = 42) () =
  (* Five seeds characterize the failover-latency distribution; the base
     seed runs twice as the determinism check. *)
  let sweep = Chaos.sweep ~seed ~extra_seeds:4 run_once in
  let r1 = sweep.Chaos.base in
  Report.record_rate ?latency:r1.op_latency ~host_ms:sweep.Chaos.host_ms
    ~experiment:"failover/chaos" ~ops:(float_of_int r1.total_ops)
    ~elapsed:duration ();
  Report.emit_plan (plan_of ~seed);
  print r1;
  (match (r1.detection_time, r1.recovery_time) with
  | Some _, Some _ -> ()
  | _ ->
      failwith
        "Failover: the detector or the recovery path did not fire — the \
         automatic failover chain is broken");
  Chaos.check_determinism ~experiment:"Failover" ~same:same_result sweep;
  (* Percentiles over the seed sweep (duplicate base-seed run excluded). *)
  let runs = r1 :: sweep.Chaos.extra in
  Chaos.percentile_table ~experiment:"Failover" ~count:"seeds"
    (Chaos.phase_histos (phases runs));
  Report.note
    (Printf.sprintf "latency percentiles over %d seeds (seed %d..%d)"
       (List.length runs) seed (seed + List.length sweep.Chaos.extra));
  r1
