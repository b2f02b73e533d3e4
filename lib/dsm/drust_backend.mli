(** DRust as a {!Dsm.t} backend.

    Reads are immutable borrows (per-node caching keyed by colored
    address); writes are mutable borrows (move-or-recolor, owner
    write-back); mutexes are the one-sided-CAS {!Drust_runtime.Dmutex}.
    This is the adapter the shared application code runs on for the
    "DRust" rows of every figure. *)

val create : Drust_machine.Cluster.t -> Dsm.t
