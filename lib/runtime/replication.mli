(** Fault tolerance by heap replication (§4.2.3).

    Each heap partition gets a backup copy at the same virtual addresses
    on the next server in the ring.  Threads are not replicated.  A thread
    batches its modifications and writes them back to the backup when the
    object's ownership is transferred to another server — the moment the
    object becomes visible to other threads — rather than after every
    mutable borrow.  When a primary fails, the controller promotes its
    backup to primary.

    The manager hooks the protocol's commit, transfer and free
    notifications, so applications need no code changes; a freed object
    leaves every backup, so a promotion never brings it back. *)

module Ctx = Drust_machine.Ctx

type t

val enable : ?replicas:int -> Drust_machine.Cluster.t -> t
(** Snapshot every partition into [replicas] backup copies (default 1,
    hosted on the next servers in the ring) and start intercepting
    writes.  With [replicas = k] the heap survives any [k] failures whose
    replica hosts remain alive.  Call before the workload mutates the
    heap. *)

val disable : t -> unit
(** Unhook from the protocol (end of experiment). *)

val backup_node : t -> int -> int
(** [backup_node t i] is the server holding node [i]'s first replica
    ([(i+1) mod n]); replica [r] lives on [(i+1+r) mod n]. *)

val pending_writes : t -> int
(** Objects modified since their last write-back (across all threads). *)

val sync_now : Ctx.t -> t -> unit
(** Flush every batched modification to the backups (asynchronous
    one-sided WRITEs), e.g. at a checkpoint. *)

val fail_and_promote : Ctx.t -> t -> node:int -> unit
(** Kill a primary: mark the node failed and promote its backup so the
    dead range is served by the backup server.  Objects modified but not
    yet written back are lost, exactly as in the paper's design (their
    ownership had not yet escaped the failed server).  Every surviving
    node's cache is purged of copies from the promoted ranges: those
    copies may hold exactly the lost writes under still-current colored
    addresses, and must not keep serving them.  A range whose replica
    hosts are {e all} dead is not promoted; it is recorded in
    {!unrecoverable_ranges} and its reads keep failing with
    [Fabric.Node_down] — cascading failures degrade to an explicit
    report, never an exception from inside promotion. *)

val unrecoverable_ranges : t -> int list
(** Home ranges lost to cascading failures (server and every replica
    host dead), ascending.  Empty while the cluster is recoverable. *)

val reseed_chain : Ctx.t -> t -> home:int -> int list
(** Rebuild [home]'s replica chain from the store currently serving the
    range (after a planned handoff installed a new server): every alive
    replica host receives a fresh snapshot via a bulk asynchronous
    WRITE.  Returns the alive hosts now holding a current copy, in ring
    order; dead hosts — and a ring slot landing on the server itself,
    where a backup would survive exactly the failures the primary
    survives — are skipped and never promoted. *)
