(** Supplementary: per-operation latency distributions.

    Throughput tells who wins; latency tells why.  For the two
    request-oriented applications (KV Store ops, SocialNet requests) this
    experiment reports median and P99 virtual latency on the 8-node
    testbed for each DSM, next to the 1-node original.  DRust's reads ride
    single one-sided verbs, so its P99 should sit far below GAM's
    (directory round trips) and Grappa's (aggregation timeouts). *)

type row = {
  app : Drust_plan.Simplan.app;
  system : Drust_plan.Simplan.system;
  p50_us : float;
  p99_us : float;
}

val run : unit -> row list
