(** Figure 5: application throughput scaling (1–8 nodes) for DRust, GAM,
    Grappa, normalized to each application's single-node original run. *)

type row = {
  app : Drust_plan.Simplan.app;
  system : Drust_plan.Simplan.system;
  nodes : int;
  speedup : float;  (** normalized throughput vs 1-node original *)
  throughput : float;
}

val run : ?node_counts:int list -> unit -> row list
(** Runs the full sweep (including SocialNet's original-distributed
    baseline) and prints the four sub-figures with the paper's quoted
    reference points. *)

val paper_8node : (Drust_plan.Simplan.app * Drust_plan.Simplan.system * float) list
(** Speedups the paper quotes at 8 nodes. *)
