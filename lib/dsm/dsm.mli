(** Backend-neutral DSM interface.

    The four evaluation applications are written once against this record
    of operations and run unchanged on DRust, GAM, Grappa, or the
    single-machine Local backend — mirroring how the paper ports each
    application to each system.  Handles and mutexes are extensible
    variants so every backend can carry its own representation; using a
    handle with the wrong backend raises {!Foreign_handle}.

    Semantics expected of implementations:
    - [read] is a shared (SWMR-reader) access and may cache;
    - [write]/[update] are exclusive accesses — the caller guarantees no
      concurrent reader, as rustc would for DRust;
    - [mutex_*] provide cluster-wide mutual exclusion for the cases where
      the application's structure is not ownership-friendly (KV store). *)

module Ctx = Drust_machine.Ctx

type handle = ..
type mutex = ..

exception Foreign_handle of string

type t = {
  name : string;
  alloc : Ctx.t -> size:int -> Drust_util.Univ.t -> handle;
  alloc_on : Ctx.t -> node:int -> size:int -> Drust_util.Univ.t -> handle;
  read : Ctx.t -> handle -> Drust_util.Univ.t;
  write : Ctx.t -> handle -> Drust_util.Univ.t -> unit;
  update : Ctx.t -> handle -> (Drust_util.Univ.t -> Drust_util.Univ.t) -> unit;
  free : Ctx.t -> handle -> unit;
  read_part : Ctx.t -> handle -> bytes:int -> unit;
      (** Touch a [bytes]-sized fragment of the object (streaming access).
          Object-granularity systems fetch the whole object on first touch
          and serve later fragments from their cache; Grappa delegates
          every fragment to the home. *)
  process : Ctx.t -> handle -> cycles:float -> Drust_util.Univ.t;
      (** Read the object and run [cycles] of work over it, wherever the
          system executes such work: data-shipping systems (DRust, GAM,
          Local) fetch the object and compute at the caller; Grappa ships
          the computation to the object's home core.  Calls on the same
          handle are mutually atomic on Grappa (home-core serialization)
          but NOT on the others — guard them with a mutex. *)
  process_update : Ctx.t -> handle -> cycles:float
    -> (Drust_util.Univ.t -> Drust_util.Univ.t) -> unit;
      (** Read-modify-write variant of [process]. *)
  home : handle -> int;
      (** Node currently hosting the object (for affinity placement). *)
  tie : Ctx.t -> parent:handle -> child:handle -> unit;
      (** Affinity annotation; a no-op on backends without TBox. *)
  supports_affinity : bool;
  mutex_create : Ctx.t -> mutex;
  mutex_lock : Ctx.t -> mutex -> unit;
  mutex_unlock : Ctx.t -> mutex -> unit;
}

val foreign : string -> 'a
(** [foreign name] raises {!Foreign_handle} — helper for backends. *)
