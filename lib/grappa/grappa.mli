(** Grappa baseline (Nelson et al., ATC'15) re-implemented on the
    simulated fabric.

    Grappa's programming model is {e always-delegation}: every access to
    shared memory ships a function to the data's home core and executes it
    there; nothing is ever cached remotely.  Messages are batched by an
    aggregator to amortize network overhead, which adds latency.  Under
    skewed load the home cores of popular objects become the bottleneck —
    the delegation queue is explicit here, so that behaviour emerges
    naturally (the paper's KV-store and DataFrame results).  Compute
    ships to the data too: [process] runs its cycles on the object's home
    core, serialized per object.  Every access goes through {!backend}. *)

type t

val create : Drust_machine.Cluster.t -> t

val delegations : t -> int

val backend : t -> Drust_dsm.Dsm.t
(** Mutexes are free on Grappa: delegations to the same object serialize
    at its home core by construction. *)
