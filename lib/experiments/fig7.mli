(** Figure 7: cost of cache coherence — each application run with a fixed
    total resource budget (16 cores / 64 GB) on one node vs spread over
    eight nodes.  The slowdown isolates protocol + cross-server access
    cost from scaling effects.  Paper: DRust loses 4 % (GEMM) to 32 %
    (KV Store); GAM and Grappa lose 10–98 %.  SocialNet is omitted, as in
    the paper (its original version is not comparable). *)

type row = {
  app : Drust_plan.Simplan.app;
  system : Drust_plan.Simplan.system;
  overhead : float;  (** 1 - T(8 nodes) / T(1 node), fixed resources *)
}

val run : unit -> row list
