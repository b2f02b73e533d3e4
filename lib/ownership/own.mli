(** Single-machine typed ownership cells.

    A faithful, local-only rendering of the Rust discipline the paper
    builds on (its Listing 1): a value with one owner, scoped immutable and
    mutable borrows, and ownership transfer.  The DSM layer does not use
    this module directly — it uses {!Borrow_state} plus its own storage —
    but it shares the exact automaton, so property tests can check the two
    against each other, and examples can show the programming model without
    a cluster. *)

type 'a owner
type 'a imm_ref
type 'a mut_ref

val own : 'a -> 'a owner
(** [own v] heap-allocates [v] with a fresh owner (Rust's [Box::new]). *)

val borrow : 'a owner -> 'a imm_ref
val read : 'a imm_ref -> 'a
val drop_ref : 'a imm_ref -> unit

val borrow_mut : 'a owner -> 'a mut_ref
val write : 'a mut_ref -> 'a -> unit
val drop_mut : 'a mut_ref -> unit

val owner_read : 'a owner -> 'a
(** Read through the owner; legal while immutably borrowed. *)

val owner_write : 'a owner -> 'a -> unit
(** Write through the owner; requires no outstanding borrows. *)

val transfer : 'a owner -> 'a owner
(** Move ownership to a fresh owner, invalidating the argument. *)

val drop_owner : 'a owner -> unit
(** End of the owner's lifetime; requires no outstanding borrows. *)

val with_borrow : 'a owner -> ('a -> 'b) -> 'b
(** Scoped immutable borrow, released on return or exception. *)

val with_borrow_mut : 'a owner -> ('a -> 'a * 'b) -> 'b
(** Scoped mutable borrow: the callback receives the current value and
    returns the new value. *)

val state : 'a owner -> Borrow_state.state
