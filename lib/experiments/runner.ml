module Simplan = Drust_plan.Simplan

(* One entry per plan-replayable experiment.  Every entry takes the
   suite's knobs; most ignore them (their sweeps are part of the
   paper's fixed grids).  The seeded ones thread [su_seed] so a suite
   plan with a different seed replays faithfully. *)
let table : (string * (Simplan.suite -> unit)) list =
  [
    ("motivation", fun _ -> ignore (Motivation.run ()));
    ("table1", fun _ -> ignore (Table1.run ()));
    ("table2", fun s -> ignore (Table2.run ~seed:s.Simplan.su_seed ()));
    ( "fig5",
      fun s -> ignore (Fig5.run ?node_counts:s.Simplan.su_node_counts ()) );
    ("fig6", fun _ -> ignore (Fig6.run ()));
    ("fig7", fun _ -> ignore (Fig7.run ()));
    ("migration", fun _ -> ignore (Migration.run ()));
    ("ablation", fun _ -> ignore (Ablation.run ()));
    ("traffic", fun _ -> ignore (Traffic.run ()));
    ("ycsb", fun _ -> ignore (Ycsb_suite.run ()));
    ("latency", fun _ -> ignore (Latency.run ()));
    ("failover", fun s -> ignore (Failover.run ~seed:s.Simplan.su_seed ()));
    ( "churn",
      fun s ->
        ignore
          (Churn.run ~seed:s.Simplan.su_seed ?nodes:s.Simplan.su_churn_nodes
             ()) );
  ]

let names = List.map fst table

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
        (fun (s : Simplan.suite) ->
          Report.emit_plan
            {
              Simplan.name;
              expect = Simplan.bench_schema;
              spec = Simplan.Suite { s with Simplan.su_experiments = [ name ] };
            };
          f s)
