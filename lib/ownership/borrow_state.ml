type state = Owned | Shared of int | Mut_borrowed | Dead

type violation_kind =
  | Mut_while_borrowed
  | Imm_while_mut_borrowed
  | Transfer_while_borrowed
  | Drop_while_borrowed
  | Use_after_death
  | Return_without_borrow

exception
  Violation of {
    kind : violation_kind;
    state : state;
    context : string;
  }

type t = { mutable n : int }

(* The state as one int, so that no transition allocates (a [Shared n]
   block per reader count would): [n > 0] readers is [Shared n], and the
   other states are the constants below.  [state] builds the variant
   only when asked. *)
let owned = 0
let mut_borrowed = -1
let dead = -2

let create () = { n = owned }

let state t =
  if t.n > 0 then Shared t.n
  else if t.n = owned then Owned
  else if t.n = mut_borrowed then Mut_borrowed
  else Dead

let fail t kind context = raise (Violation { kind; state = state t; context })

let borrow_imm t ~context =
  if t.n >= owned then t.n <- t.n + 1
  else if t.n = mut_borrowed then fail t Imm_while_mut_borrowed context
  else fail t Use_after_death context

let return_imm t ~context =
  if t.n > 0 then t.n <- t.n - 1 else fail t Return_without_borrow context

let borrow_mut t ~context =
  if t.n = owned then t.n <- mut_borrowed
  else if t.n = dead then fail t Use_after_death context
  else fail t Mut_while_borrowed context

let return_mut t ~context =
  if t.n = mut_borrowed then t.n <- owned
  else fail t Return_without_borrow context

let assert_owner_usable t ~context =
  if t.n = dead then fail t Use_after_death context
  else if t.n <> owned then fail t Mut_while_borrowed context

let assert_owner_readable t ~context =
  if t.n = mut_borrowed then fail t Imm_while_mut_borrowed context
  else if t.n = dead then fail t Use_after_death context

let transfer t ~context =
  if t.n = dead then fail t Use_after_death context
  else if t.n <> owned then fail t Transfer_while_borrowed context

let kill t ~context =
  if t.n = owned then t.n <- dead
  else if t.n = dead then fail t Use_after_death context
  else fail t Drop_while_borrowed context

let is_mut_borrowed t = t.n = mut_borrowed
let is_dead t = t.n = dead
