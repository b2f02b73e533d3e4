(** Dynamic enforcement of Rust's ownership invariants.

    OCaml has no affine types, so the guarantees the paper gets from rustc
    at compile time are checked here at run time.  Every DRust object
    carries one [Borrow_state.t]; each API call drives the automaton below
    and raises {!Violation} on any transition a Rust compiler would have
    rejected.  The four invariants of §2:

    + {b Singular owner} — a value has exactly one live owner; transfer
      invalidates the source.
    + {b Safe borrowing} — borrows are created from the owner and must be
      returned before the owner dies or moves.
    + {b Single writer} — at most one mutable borrow, never alongside any
      other borrow.
    + {b Multiple reader} — any number of immutable borrows, but only when
      no mutable borrow exists.

    States (Fig. 1 of the paper): [Owned] (no outstanding borrow),
    [Shared n] (n immutable borrows live), [Mut_borrowed] (exclusive
    mutable borrow live), [Dead] (owner dropped or moved away). *)

type t

type state = Owned | Shared of int | Mut_borrowed | Dead

type violation_kind =
  | Mut_while_borrowed  (** mutable borrow requested while borrows live *)
  | Imm_while_mut_borrowed
  | Transfer_while_borrowed
  | Drop_while_borrowed
  | Use_after_death  (** owner used after a move or drop *)
  | Return_without_borrow  (** internal bug: unbalanced return *)

exception
  Violation of {
    kind : violation_kind;
    state : state;
    context : string;
  }

val create : unit -> t
val state : t -> state

val borrow_imm : t -> context:string -> unit
(** Owner hands out an immutable reference ([Owned] or [Shared n] →
    [Shared (n+1)]). *)

val return_imm : t -> context:string -> unit
(** An immutable reference is dropped. *)

val borrow_mut : t -> context:string -> unit
(** Owner hands out the unique mutable reference ([Owned] →
    [Mut_borrowed]). *)

val return_mut : t -> context:string -> unit
(** The mutable reference is dropped ([Mut_borrowed] → [Owned]). *)

val assert_owner_usable : t -> context:string -> unit
(** Direct owner access requires the [Owned] state (a write) — reads via
    the owner use {!assert_owner_readable}. *)

val assert_owner_readable : t -> context:string -> unit
(** Owner reads are legal in [Owned] and [Shared _]. *)

val transfer : t -> context:string -> unit
(** Ownership moves away (spawn capture, channel send...).  Legal only in
    [Owned]; the state machine stays [Owned] — the {e source handle} must
    be separately invalidated by the caller. *)

val kill : t -> context:string -> unit
(** Owner goes out of scope; legal only in [Owned], transitions to
    [Dead]. *)

val is_mut_borrowed : t -> bool
val is_dead : t -> bool
