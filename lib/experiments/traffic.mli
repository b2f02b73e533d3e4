(** Supplementary: coherence traffic per application operation.

    Quantifies the paper's qualitative claims ("extensive coherence
    traffic", "no coherence overhead for reads") by counting fabric verbs
    and bytes per application operation for each DSM on the 8-node
    testbed.  DRust should show strictly fewer control messages than GAM
    (no invalidations) and far fewer than Grappa (no delegation). *)

type row = {
  app : Drust_plan.Simplan.app;
  system : Drust_plan.Simplan.system;
  remote_ops_per_op : float;
  bytes_per_op : float;
}

val run : unit -> row list
