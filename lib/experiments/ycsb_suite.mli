(** Extension: the full YCSB core-workload suite on the KV store.

    The paper evaluates one mix (zipf 90/10); this extension runs all six
    standard YCSB workloads (A–F) on the 8-node testbed for the three
    DSMs, normalized per workload to the 1-node original.  Expected
    shape: DRust's lead grows with read share (C best — pure caching)
    and shrinks as writes/RMWs serialize on mutex+move (A, F). *)

type row = {
  workload : Drust_workloads.Ycsb.workload;
  system : Drust_plan.Simplan.system;
  speedup : float;
}

val run : unit -> row list
