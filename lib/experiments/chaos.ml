module Metrics = Drust_obs.Metrics

type 'a sweep = { base : 'a; repeat : 'a; extra : 'a list; host_ms : float }

let sweep ~seed ~extra_seeds run =
  (* All runs are independent clusters, so under --jobs >= 2 the sweep
     fans out over domains; the results must not change. *)
  let seeds = seed :: seed :: List.init extra_seeds (fun i -> seed + 1 + i) in
  match Drust_util.Host_clock.timed (fun () -> Parallel.map run seeds) with
  | base :: repeat :: extra, host_s ->
      { base; repeat; extra; host_ms = host_s *. 1e3 }
  | _ -> assert false

let check_determinism ~experiment ~same s =
  if not (same s.base s.repeat) then
    Printf.ksprintf failwith
      "%s: two runs with the same seed diverged — determinism bug" experiment;
  Report.note "determinism: second run with the same seed is bit-identical"

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_histo (a : Metrics.histo) (b : Metrics.histo) =
  a.h_count = b.h_count && same_float a.h_sum b.h_sum
  && same_float a.h_min b.h_min && same_float a.h_max b.h_max
  && List.equal
       (fun (ua, na) (ub, nb) -> same_float ua ub && na = nb)
       a.h_buckets b.h_buckets

let same_latency = Option.equal same_histo

(* Detection, recovery and handoff latencies are milliseconds-scale. *)
let phase_buckets = [| 1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3; 1e-2; 2e-2; 5e-2 |]

let phase_histo samples =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:phase_buckets "chaos.latency" in
  List.iter (Metrics.observe h) samples;
  match Metrics.snapshot reg with
  | [ { Metrics.s_value = Metrics.Histo h; _ } ] -> h
  | _ -> assert false

let phase_histos =
  List.map (fun (phase, samples) -> (phase, phase_histo samples))

let percentiles =
  List.map (fun (phase, h) ->
      let qv q = Option.value (Metrics.quantile h q) ~default:nan in
      (phase, h.Metrics.h_count, qv 0.5, qv 0.99))

let percentile_table ~experiment ~count histos =
  let pct = percentiles histos in
  let ms s = Printf.sprintf "%.3f" (s *. 1e3) in
  Report.table
    ~header:[ "phase"; count; "p50 (ms)"; "p99 (ms)" ]
    ~rows:
      (List.map
         (fun (phase, n, p50, p99) ->
           [ phase; string_of_int n; ms p50; ms p99 ])
         pct);
  List.iter
    (fun (phase, n, p50, p99) ->
      if n = 0 then
        Printf.ksprintf failwith "%s: no %s latency samples" experiment phase;
      if not (p99 >= p50) then
        Printf.ksprintf failwith
          "%s: %s p99 (%.6f s) < p50 (%.6f s) — quantile estimator is not \
           monotone"
          experiment phase p99 p50)
    pct
