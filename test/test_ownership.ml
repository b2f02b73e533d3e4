(* Tests for the dynamic ownership discipline — the OCaml stand-in for the
   Rust borrow checker.  Includes a property test that random op sequences
   never corrupt the automaton. *)

module B = Drust_ownership.Borrow_state

let violates kind f =
  try
    f ();
    false
  with B.Violation v -> v.kind = kind

(* ------------------------------------------------------------------ *)
(* Borrow_state automaton *)

let test_initial_owned () =
  let s = B.create () in
  Alcotest.(check bool) "owned" true (B.state s = B.Owned)

let test_shared_counting () =
  let s = B.create () in
  B.borrow_imm s ~context:"t";
  B.borrow_imm s ~context:"t";
  Alcotest.(check bool) "two readers" true (B.state s = B.Shared 2);
  B.return_imm s ~context:"t";
  Alcotest.(check bool) "one reader" true (B.state s = B.Shared 1);
  B.return_imm s ~context:"t";
  Alcotest.(check bool) "owned again" true (B.state s = B.Owned)

let test_single_writer () =
  let s = B.create () in
  B.borrow_mut s ~context:"t";
  Alcotest.(check bool) "mut" true (B.is_mut_borrowed s);
  Alcotest.(check bool) "second mut rejected" true
    (violates B.Mut_while_borrowed (fun () -> B.borrow_mut s ~context:"t"));
  Alcotest.(check bool) "imm during mut rejected" true
    (violates B.Imm_while_mut_borrowed (fun () -> B.borrow_imm s ~context:"t"))

let test_mut_while_shared_rejected () =
  let s = B.create () in
  B.borrow_imm s ~context:"t";
  Alcotest.(check bool) "mut while shared" true
    (violates B.Mut_while_borrowed (fun () -> B.borrow_mut s ~context:"t"))

let test_transfer_requires_owned () =
  let s = B.create () in
  B.borrow_imm s ~context:"t";
  Alcotest.(check bool) "transfer while borrowed" true
    (violates B.Transfer_while_borrowed (fun () -> B.transfer s ~context:"t"));
  B.return_imm s ~context:"t";
  B.transfer s ~context:"t" (* fine now *)

let test_kill_requires_owned () =
  let s = B.create () in
  B.borrow_mut s ~context:"t";
  Alcotest.(check bool) "drop while borrowed" true
    (violates B.Drop_while_borrowed (fun () -> B.kill s ~context:"t"));
  B.return_mut s ~context:"t";
  B.kill s ~context:"t";
  Alcotest.(check bool) "dead" true (B.is_dead s);
  Alcotest.(check bool) "use after death" true
    (violates B.Use_after_death (fun () -> B.borrow_imm s ~context:"t"))

let test_unbalanced_returns () =
  let s = B.create () in
  Alcotest.(check bool) "return_imm on owned" true
    (violates B.Return_without_borrow (fun () -> B.return_imm s ~context:"t"));
  Alcotest.(check bool) "return_mut on owned" true
    (violates B.Return_without_borrow (fun () -> B.return_mut s ~context:"t"))

let test_owner_read_during_share () =
  let s = B.create () in
  B.borrow_imm s ~context:"t";
  B.assert_owner_readable s ~context:"t";
  Alcotest.(check bool) "owner write during share rejected" true
    (violates B.Mut_while_borrowed (fun () -> B.assert_owner_usable s ~context:"t"))

(* Property: random legal-or-illegal op sequences keep the automaton
   consistent — a [Shared] count is always the number of outstanding imm borrows,
   and a violation never mutates state. *)
let prop_automaton_consistent =
  let op_gen = QCheck.Gen.int_range 0 4 in
  QCheck.Test.make ~name:"borrow automaton stays consistent" ~count:500
    QCheck.(make ~print:(fun l -> String.concat "," (List.map string_of_int l))
              (QCheck.Gen.list_size (QCheck.Gen.int_range 1 60) op_gen))
    (fun ops ->
      let s = B.create () in
      let imms = ref 0 and muts = ref 0 and dead = ref false in
      let apply op =
        let before = B.state s in
        match op with
        | 0 -> ( try B.borrow_imm s ~context:"p"; incr imms with B.Violation _ ->
                   if B.state s <> before then failwith "state mutated on violation")
        | 1 ->
            if !imms > 0 then begin
              B.return_imm s ~context:"p";
              decr imms
            end
        | 2 -> (
            try
              B.borrow_mut s ~context:"p";
              incr muts
            with B.Violation _ -> ())
        | 3 ->
            if !muts > 0 then begin
              B.return_mut s ~context:"p";
              decr muts
            end
        | _ -> (
            try
              B.kill s ~context:"p";
              dead := true
            with B.Violation _ -> ())
      in
      List.iter apply ops;
      (if !dead then B.is_dead s
       else
         match B.state s with
         | B.Owned -> !imms = 0 && !muts = 0
         | B.Shared n -> n = !imms && !muts = 0
         | B.Mut_borrowed -> !muts = 1 && !imms = 0
         | B.Dead -> false))

let () =
  Alcotest.run "ownership"
    [
      ( "borrow_state",
        [
          Alcotest.test_case "initial owned" `Quick test_initial_owned;
          Alcotest.test_case "shared counting" `Quick test_shared_counting;
          Alcotest.test_case "single writer" `Quick test_single_writer;
          Alcotest.test_case "mut while shared" `Quick test_mut_while_shared_rejected;
          Alcotest.test_case "transfer rules" `Quick test_transfer_requires_owned;
          Alcotest.test_case "kill rules" `Quick test_kill_requires_owned;
          Alcotest.test_case "unbalanced returns" `Quick test_unbalanced_returns;
          Alcotest.test_case "owner access during share" `Quick test_owner_read_during_share;
          QCheck_alcotest.to_alcotest prop_automaton_consistent;
        ] );
    ]
