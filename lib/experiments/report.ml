let csv_dir =
  ref None
[@@dlint.allow
  "globals: one harness run produces one CSV set — per-process by design"]

let current_slug =
  ref "table"
[@@dlint.allow
  "globals: per-process CSV naming state, paired with csv_dir above"]

let slug_counter =
  ref 0
[@@dlint.allow
  "globals: per-process CSV naming state, paired with csv_dir above"]

let set_csv_dir d =
  (match d with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | _ -> ());
  csv_dir := d

let slugify title =
  let b = Buffer.create (String.length title) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Buffer.add_char b (Char.lowercase_ascii c)
      | ' ' | '-' | '_' | ':' | '.' ->
          if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '-' then
            Buffer.add_char b '-'
      | _ -> ())
    title;
  let s = Buffer.contents b in
  if String.length s > 48 then String.sub s 0 48 else s

let section title =
  current_slug := slugify title;
  slug_counter := 0;
  let bar = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n| %s |\n%s\n" bar title bar

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let write_csv ~header ~rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      incr slug_counter;
      let suffix = if !slug_counter = 1 then "" else Printf.sprintf "-%d" !slug_counter in
      let path = Filename.concat dir (!current_slug ^ suffix ^ ".csv") in
      let oc = open_out path in
      let line cells = output_string oc (String.concat "," (List.map csv_escape cells) ^ "\n") in
      line header;
      List.iter line rows;
      close_out oc

let table ~header ~rows =
  write_csv ~header ~rows;
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun m row ->
        match List.nth_opt row c with
        | Some s -> max m (String.length s)
        | None -> m)
      0 all
  in
  let widths = List.init cols width in
  let print_row row =
    let cells =
      List.mapi
        (fun c w ->
          let s = match List.nth_opt row c with Some s -> s | None -> "" in
          s ^ String.make (w - String.length s) ' ')
        widths
    in
    Printf.printf "| %s |\n" (String.concat " | " cells)
  in
  let rule =
    "+"
    ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "+"
  in
  print_endline rule;
  print_row header;
  print_endline rule;
  List.iter print_row rows;
  print_endline rule

let cell_f v = Printf.sprintf "%.2f" v
let cell_pct v = Printf.sprintf "%.1f%%" (100.0 *. v)

let cell_rate v = Format.asprintf "%a" Drust_util.Units.pp_rate v
let cell_time v = Format.asprintf "%a" Drust_util.Units.pp_seconds v

let note s = Printf.printf "  %s\n" s

(* ------------------------------------------------------------------ *)
(* Benchmark summary (BENCH_summary.json)                              *)

module Metrics = Drust_obs.Metrics
module Json = Drust_util.Json

(* The single schema definition lives with the plan layer: a plan's
   [expect] field names the summary schema its run produces, so the two
   can never drift apart. *)
let schema_version = Drust_plan.Simplan.bench_schema

(* Host-time capture is opt-in (the @bench-diff alias turns it on):
   host_ms is wall-clock and thus machine- and load-dependent, so it
   must stay out of the summaries that are diffed byte-for-byte across
   --jobs values. *)
let host_time =
  ref false
[@@dlint.allow
  "globals: per-process CLI configuration (--host-time), set once before \
   any experiment runs"]
let set_host_time_recording b = host_time := b

(* Percentile points every latency histogram is reduced to in tables and
   in the summary JSON.  Exported values are microseconds. *)
let percentile_points =
  [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99); ("p99.9", 0.999) ]

let latency_percentiles h =
  (* Every caller reaches this through [Metrics.merged_histo], which
     drops empty histograms, so the [None] arm is defensive: report 0
     rather than leak a nan into the summary JSON. *)
  List.map
    (fun (label, q) ->
      (label, match Metrics.quantile h q with Some v -> v *. 1e6 | None -> 0.0))
    percentile_points

type bench_entry = {
  be_rate : float;
  be_latency : Metrics.histo option;
  be_host_ms : float option;
  be_host_rate : float option;
}

(* Ordered per-run collection (insertion order preserved, re-recording
   overwrites in place).  The mutex admits [record_rate] calls from
   parallel sweep domains; [recorded_entries] sorts by name, so the
   summary is byte-identical regardless of arrival order or [--jobs]. *)
let rates : (string * bench_entry) list ref =
  ref []
[@@dlint.allow
  "globals: the per-process summary collector — one harness run, one \
   summary; mutex-protected for parallel sweeps"]
let rates_mutex = Mutex.create ()

let record_rate ?latency ?host_ms ?host_rate ~experiment ~ops ~elapsed () =
  if elapsed > 0.0 then
    let host_ms = if !host_time then host_ms else None in
    let host_rate = if !host_time then host_rate else None in
    let entry =
      {
        be_rate = ops /. elapsed;
        be_latency = latency;
        be_host_ms = host_ms;
        be_host_rate = host_rate;
      }
    in
    Mutex.protect rates_mutex (fun () ->
        if List.mem_assoc experiment !rates then
          rates :=
            List.map
              (fun (k, v) ->
                if String.equal k experiment then (k, entry) else (k, v))
              !rates
        else rates := !rates @ [ (experiment, entry) ])

let recorded_entries () =
  Mutex.protect rates_mutex (fun () -> !rates)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let recorded_rates () =
  List.map (fun (k, e) -> (k, e.be_rate)) (recorded_entries ())

type summary_entry = {
  se_rate : float;
  se_latency_us : (string * float) list;
  se_host_ms : float option;
  se_host_rate : float option;
}
type summary = { sm_schema : string; sm_entries : (string * summary_entry) list }

(* Schema documented in docs/BENCHMARKS.md: one entry per experiment
   that called [record_rate], keyed by experiment name; entries with a
   latency histogram additionally carry [latency_us] percentiles. *)
let summary_codec =
  let entry =
    Json.(
      record (fun se_rate latency se_host_ms se_host_rate ->
          let se_latency_us = Option.value latency ~default:[] in
          { se_rate; se_latency_us; se_host_ms; se_host_rate })
      |> field "ops_per_sim_sec" number (fun e -> e.se_rate)
      |> optional "latency_us" (assoc number) (fun e ->
             if e.se_latency_us = [] then None else Some e.se_latency_us)
      |> optional "host_ms" number (fun e -> e.se_host_ms)
      |> optional "host_events_per_sec" number (fun e -> e.se_host_rate)
      |> seal)
  in
  Json.(
    record (fun sm_entries -> { sm_schema = schema_version; sm_entries })
    |> const "schema" schema_version
    |> field "entries" (assoc entry) (fun s -> s.sm_entries)
    |> seal)

let summary_keys =
  List.sort_uniq String.compare
    (Json.field_names summary_codec @ List.map fst percentile_points)

(* Summary values round to 6 significant digits: the historical
   precision, plenty for a 10%-tolerance gate, and it keeps the emitted
   file stable under refactors of internal float paths. *)
let round6 v = float_of_string (Printf.sprintf "%.6g" v)

let summary_entry e =
  {
    se_rate = round6 e.be_rate;
    se_latency_us =
      (match e.be_latency with
      | Some h when h.Metrics.h_count > 0 ->
          List.map (fun (label, v) -> (label, round6 v)) (latency_percentiles h)
      | _ -> []);
    se_host_ms = Option.map round6 e.be_host_ms;
    se_host_rate = Option.map round6 e.be_host_rate;
  }

let write_bench_summary ~path =
  Json.save ~path
    (Json.encode summary_codec
       {
         sm_schema = schema_version;
         sm_entries =
           List.map (fun (k, e) -> (k, summary_entry e)) (recorded_entries ());
       })

(* ------------------------------------------------------------------ *)
(* Plan artifacts                                                      *)

let emit_plan plan =
  let name = plan.Drust_plan.Simplan.name in
  let dir = match !csv_dir with Some d -> d | None -> Filename.current_dir_name in
  let path = Filename.concat dir (name ^ ".plan.json") in
  Drust_plan.Simplan.save ~path plan;
  Printf.eprintf "[bench] plan written to %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Summary reading and comparison (the bench_diff regression gate)     *)

let read_bench_summary ~path = Json.decode_file ~path summary_codec

let compare_summaries ?(tolerance = 0.10) ?(tolerance_host = 2.0) ~baseline
    current =
  let out = ref [] in
  let reg fmt = Printf.ksprintf (fun m -> out := m :: !out) fmt in
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name current.sm_entries with
      | None -> reg "%s: present in baseline but missing from current" name
      | Some c ->
          if c.se_rate < b.se_rate *. (1.0 -. tolerance) then
            reg "%s: throughput regressed %.6g -> %.6g ops/s (-%.1f%%, tolerance %.0f%%)"
              name b.se_rate c.se_rate
              (100.0 *. (1.0 -. (c.se_rate /. b.se_rate)))
              (100.0 *. tolerance);
          List.iter
            (fun (p, bv) ->
              match List.assoc_opt p c.se_latency_us with
              | Some cv when bv > 0.0 && cv > bv *. (1.0 +. tolerance) ->
                  reg "%s: latency %s regressed %.6g -> %.6g us (+%.1f%%, tolerance %.0f%%)"
                    name p bv cv
                    (100.0 *. ((cv /. bv) -. 1.0))
                    (100.0 *. tolerance)
              | _ -> ())
            b.se_latency_us;
          (* Host time is wall-clock, so the gate is deliberately loose:
             only a multiple-of-baseline blowup (an accidental O(n^2) or
             per-event allocation storm) trips it, not scheduler noise. *)
          (match (b.se_host_ms, c.se_host_ms) with
          | Some bv, Some cv when bv > 0.0 && cv > bv *. (1.0 +. tolerance_host)
            ->
              reg "%s: host time regressed %.6g -> %.6g ms (+%.1f%%, tolerance %.0f%%)"
                name bv cv
                (100.0 *. ((cv /. bv) -. 1.0))
                (100.0 *. tolerance_host)
          | _ -> ());
          (* Same loose gate for engine throughput (events per host
             second), in the lower-is-worse direction: only a collapse
             below baseline / (1 + tolerance_host) trips it. *)
          (match (b.se_host_rate, c.se_host_rate) with
          | Some bv, Some cv when bv > 0.0 && cv < bv /. (1.0 +. tolerance_host)
            ->
              reg
                "%s: host engine throughput regressed %.6g -> %.6g events/s \
                 (-%.1f%%, tolerance %.0f%%)"
                name bv cv
                (100.0 *. (1.0 -. (cv /. bv)))
                (100.0 *. tolerance_host)
          | _ -> ()))
    baseline.sm_entries;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Metrics-snapshot rendering                                          *)

let metrics_table ?(prefix = "") snap =
  let fmt_labels = function
    | [] -> ""
    | kvs ->
        "{"
        ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
        ^ "}"
  in
  let rows =
    List.filter_map
      (fun (e : Metrics.sample) ->
        if not (String.starts_with ~prefix e.Metrics.s_name) then None
        else
          let value, pcts =
            match e.Metrics.s_value with
            | Metrics.Count n -> (string_of_int n, [ ""; ""; "" ])
            | Metrics.Level v -> (Printf.sprintf "%g" v, [ ""; ""; "" ])
            | Metrics.Histo h ->
                ( Printf.sprintf "n=%d sum=%g" h.Metrics.h_count h.Metrics.h_sum,
                  List.map
                    (fun q ->
                      match Metrics.quantile h q with
                      | Some v -> Printf.sprintf "%.3g" v
                      | None -> "-")
                    [ 0.5; 0.95; 0.99 ] )
          in
          Some
            ((e.Metrics.s_name ^ fmt_labels e.Metrics.s_labels) :: value :: pcts
            @ [ e.Metrics.s_unit ]))
      snap
  in
  if rows <> [] then
    table ~header:[ "metric"; "value"; "p50"; "p95"; "p99"; "unit" ] ~rows
