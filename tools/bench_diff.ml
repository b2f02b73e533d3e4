(* Benchmark regression gate, run by the @bench-diff alias (a dep of
   @runtest).  Compares two drust-bench-summary/v3 BENCH_summary.json
   files entry by entry with a relative tolerance:

     bench_diff.exe BASELINE CURRENT [--tolerance F] [--tolerance-host F]
                    [--write-baseline]

   Both files are read through the strict JSON readers: another schema,
   an unknown or duplicate key, or a wrongly typed field (a string where
   host_ms or a percentile belongs) prints "bench_diff: <file>: <path>:
   <problem>" and exits 2 before anything is compared.
   A regression is a baseline entry missing from CURRENT, a throughput
   drop below baseline*(1 - tolerance), a latency percentile above
   baseline*(1 + tolerance), or — when both sides carry host_ms — a
   host time above baseline*(1 + tolerance-host); any regression exits
   1.  Host time is wall-clock and therefore noisy, so its tolerance
   defaults to 2.0 (only a 3x blowup fails) while the simulated-rate
   tolerance defaults to 0.10.  Entries present only in CURRENT are
   reported as informational and never fail the gate, so adding an
   experiment does not require touching the baseline first.
   --write-baseline validates CURRENT and copies it over BASELINE
   instead of comparing (the blessing workflow after an intentional
   perf change). *)

module Report = Drust_experiments.Report

let usage () =
  prerr_endline
    "usage: bench_diff.exe BASELINE CURRENT [--tolerance F] \
     [--tolerance-host F] [--write-baseline]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let tolerance = ref 0.10 in
  let tolerance_host = ref 2.0 in
  let write_baseline = ref false in
  let parse_tol name r f rest k =
    match float_of_string_opt f with
    | Some t when t >= 0.0 ->
        r := t;
        k rest
    | _ ->
        Printf.eprintf "bench_diff: %s expects a non-negative float\n" name;
        exit 2
  in
  let rec split acc = function
    | "--tolerance" :: f :: rest ->
        parse_tol "--tolerance" tolerance f rest (split acc)
    | "--tolerance-host" :: f :: rest ->
        parse_tol "--tolerance-host" tolerance_host f rest (split acc)
    | "--write-baseline" :: rest ->
        write_baseline := true;
        split acc rest
    | x :: rest -> split (x :: acc) rest
    | [] -> List.rev acc
  in
  let baseline_path, current_path =
    match split [] args with [ b; c ] -> (b, c) | _ -> usage ()
  in
  let read path =
    match Report.read_bench_summary ~path with
    | Ok s -> s
    | Error m ->
        Printf.eprintf "bench_diff: %s\n" m;
        exit 2
  in
  let current = read current_path in
  if !write_baseline then begin
    (* CURRENT already parsed, so the blessed file is known-readable. *)
    let text = In_channel.with_open_text current_path In_channel.input_all in
    Out_channel.with_open_text baseline_path (fun oc ->
        Out_channel.output_string oc text);
    Printf.printf "bench diff: baseline %s <- %s (%d entr(y/ies), schema %s)\n"
      baseline_path current_path
      (List.length current.Report.sm_entries)
      current.Report.sm_schema
  end
  else begin
    let baseline = read baseline_path in
    let regressions =
      Report.compare_summaries ~tolerance:!tolerance
        ~tolerance_host:!tolerance_host ~baseline current
    in
    (* Informational host-time column: baseline -> current ms per entry
       that carries host_ms on both sides.  The pass/fail decision lives
       in [compare_summaries]; this line just surfaces the drift. *)
    List.iter
      (fun (name, (c : Report.summary_entry)) ->
        match
          (List.assoc_opt name baseline.Report.sm_entries, c.Report.se_host_ms)
        with
        | Some b, Some cv -> (
            match b.Report.se_host_ms with
            | Some bv when bv > 0.0 ->
                Printf.printf "bench diff: host %s: %.6g -> %.6g ms (%+.1f%%)\n"
                  name bv cv
                  (100.0 *. ((cv /. bv) -. 1.0))
            | _ -> ())
        | _ -> ())
      current.Report.sm_entries;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name baseline.Report.sm_entries) then
          Printf.printf "bench diff: note: new entry %s (not in baseline)\n"
            name)
      current.Report.sm_entries;
    match regressions with
    | [] ->
        Printf.printf
          "bench diff: OK (%d entr(y/ies) within %.0f%%, host within %.0f%%)\n"
          (List.length baseline.Report.sm_entries)
          (100.0 *. !tolerance)
          (100.0 *. !tolerance_host)
    | msgs ->
        List.iter (Printf.eprintf "bench diff: REGRESSION: %s\n") msgs;
        Printf.eprintf
          "bench diff: %d regression(s) vs %s (tolerance %.0f%%, host \
           %.0f%%); if intentional, re-bless with --write-baseline\n"
          (List.length msgs) baseline_path
          (100.0 *. !tolerance)
          (100.0 *. !tolerance_host);
        exit 1
  end
