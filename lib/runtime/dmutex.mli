(** Distributed mutexes (the paper's adapted [std::sync::Mutex], §4.1.2).

    The mutex metadata and the object it guards live on the global heap of
    the creating server; handles replicate freely.  Locking uses one-sided
    ATOMIC_CMP_AND_SWP with bounded exponential backoff — the efficiency
    edge the paper credits for DRust's KV-store advantage over GAM's
    two-sided lock messages (§7.2).  All concurrent operations serialize
    at the home server, which is exactly the degeneration to classic DSM
    the paper describes for shared-state-heavy programs (§6).

    Lock transitions are emitted to [Cluster.tap] as [Tap.Lock_*]
    events; [Lock_released] fires before the holder check, so a checker
    observes a foreign unlock the operation itself then rejects. *)

module Ctx = Drust_machine.Ctx

type t

val create : Ctx.t -> size:int -> Drust_util.Univ.t -> t
(** [create ctx ~size v] allocates the lock word and the guarded object
    (of [size] bytes) in the caller's partition. *)

val lock : Ctx.t -> t -> unit
(** CAS loop; blocks (in virtual time) until acquired. *)

val unlock : Ctx.t -> t -> unit
(** One-sided WRITE of the lock word.  Raises [Invalid_argument] when the
    mutex is not held. *)

val read_guarded : Ctx.t -> t -> Drust_util.Univ.t
(** Read the guarded object (caller must hold the lock; enforced). *)

val with_lock : Ctx.t -> t -> (Drust_util.Univ.t -> Drust_util.Univ.t * 'a) -> 'a
(** Lock, read, apply, write back, unlock — releasing on exception. *)
