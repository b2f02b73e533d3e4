module Deref_cost = Drust_core.Deref_cost
module Stats = Drust_util.Stats

type row = { label : string; average : float; median : float; p90 : float }

let paper = [ ("DRust", (395.0, 356.0, 536.0)); ("Rust", (364.0, 332.0, 496.0)) ]

(* Dereferences sampled per pointer kind. *)
let samples = 200_000

let run ?(seed = 42) () =
  Report.section "Table 2: pointer dereference latency (cycles)";
  let rng = Drust_util.Rng.create ~seed in
  let collect label kind =
    let s = Deref_cost.collect rng kind ~n:samples in
    {
      label;
      average = Stats.mean s;
      median = Stats.median s;
      p90 = Stats.percentile s 90.0;
    }
  in
  let rows =
    [ collect "DRust" Deref_cost.Drust_box; collect "Rust" Deref_cost.Plain_box ]
  in
  Report.table
    ~header:[ "pointer"; "average"; "median"; "P90"; "paper (avg/med/P90)" ]
    ~rows:
      (List.map
         (fun r ->
           let pa, pm, pp = List.assoc r.label paper in
           [
             r.label;
             Printf.sprintf "%.0f" r.average;
             Printf.sprintf "%.0f" r.median;
             Printf.sprintf "%.0f" r.p90;
             Printf.sprintf "%.0f / %.0f / %.0f" pa pm pp;
           ])
         rows);
  Report.note
    (Printf.sprintf "modelled runtime-check overhead: %.0f cycles"
       Deref_cost.check_overhead_cycles);
  rows
