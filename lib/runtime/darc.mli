(** Distributed atomically-reference-counted sharing (the paper's adapted
    [std::sync::Arc], §4.1.2).

    The payload is immutable and lives at a fixed global address; clones
    only bump a reference count at the home server (a one-sided atomic).
    Reads are handled like immutable borrows: copied on demand into the
    reading node's cache and evicted lazily.

    Every refcount transition is emitted to [Cluster.tap] as a
    [Tap.Rc_*] event carrying the post-transition count.  Rust's
    single-thread [Rc] needs no distributed counterpart: its handles
    never leave their thread, so the paper gives it no special
    treatment (§4.1.2). *)

module Ctx = Drust_machine.Ctx

type t

val create : Ctx.t -> size:int -> Drust_util.Univ.t -> t
val clone : Ctx.t -> t -> t
(** New handle; increments the shared strong count. *)

val get : Ctx.t -> t -> Drust_util.Univ.t
(** Read the payload — local, cached, or fetched. *)

val strong_count : Ctx.t -> t -> int

val drop : Ctx.t -> t -> unit
(** Decrements the count; the last drop frees the payload and invalidates
    cached copies cluster-wide.  Raises [Invalid_argument] on reuse. *)
