module Simplan = Drust_plan.Simplan

type opts = {
  node_counts : int list option;
  churn_nodes : int option;
  seed : int;
}

let default_opts = { node_counts = None; churn_nodes = None; seed = 42 }

(* One entry per plan-replayable experiment.  Every entry takes the
   suite knobs; most ignore them (their sweeps are part of the paper's
   fixed grids).  The seeded ones thread [opts.seed] so a suite plan
   with a different seed replays faithfully. *)
let table : (string * (opts -> unit)) list =
  [
    ("motivation", fun _ -> ignore (Motivation.run ()));
    ("table1", fun _ -> ignore (Table1.run ()));
    ("table2", fun o -> ignore (Table2.run ~seed:o.seed ()));
    ("fig5", fun o -> ignore (Fig5.run ?node_counts:o.node_counts ()));
    ("fig6", fun _ -> ignore (Fig6.run ()));
    ("fig7", fun _ -> ignore (Fig7.run ()));
    ("migration", fun _ -> ignore (Migration.run ()));
    ("ablation", fun _ -> ignore (Ablation.run ()));
    ("traffic", fun _ -> ignore (Traffic.run ()));
    ("ycsb", fun _ -> ignore (Ycsb_suite.run ()));
    ("latency", fun _ -> ignore (Latency.run ()));
    ("failover", fun o -> ignore (Failover.run ~seed:o.seed ()));
    ( "churn",
      fun o -> ignore (Churn.run ~seed:o.seed ?nodes:o.churn_nodes ()) );
  ]

let names = List.map fst table

let suite_plan_of opts ~name requested =
  Simplan.suite_plan ?node_counts:opts.node_counts
    ?churn_nodes:opts.churn_nodes ~seed:opts.seed ~name requested

(* Every dispatch emits the single-experiment suite plan it is about to
   run as [<name>.plan.json] next to the results — the artifact a
   later [--plan] replays.  Emission is stderr-only, so stdout stays
   byte-identical, and it happens on both the direct and the replay
   path (they share this lookup), so replays re-emit the same file. *)
let find name =
  match List.assoc_opt name table with
  | None -> None
  | Some f ->
      Some
        (fun opts ->
          Report.emit_plan (suite_plan_of opts ~name [ name ]);
          f opts)

let opts_of_suite (s : Simplan.suite) =
  {
    node_counts = s.Simplan.su_node_counts;
    churn_nodes = s.Simplan.su_churn_nodes;
    seed = s.Simplan.su_seed;
  }
