(* DLint framework tests: one seeded-violation fixture per pass under
   lint_fixtures/ (laid out as a lib/ subtree so pass scoping applies
   exactly as it does on the real source), plus the
   clean-run regression over the repo's actual lib/ tree. *)

module Dlint = Drust_lint.Dlint
module Lint = Drust_lint.Lint

let fx sub = Filename.concat "lint_fixtures" sub
let run ?only paths = Dlint.run ?only ~paths ()

let triples res =
  List.map
    (fun (d : Lint.diagnostic) -> (d.Lint.d_pass, d.Lint.d_line, d.Lint.d_col))
    res.Dlint.diagnostics

let triple_t = Alcotest.(triple string int int)

let check_triples what want res =
  Alcotest.check (Alcotest.list triple_t) what want (triples res)

(* --- one fixture per pass ------------------------------------------ *)

let test_determinism_fixture () =
  check_triples "determinism findings"
    [
      ("determinism", 3, 14); (* Random.self_init *)
      ("determinism", 4, 13); (* Unix.gettimeofday *)
      ("determinism", 5, 17); (* Hashtbl.iter *)
      ("determinism", 6, 25); (* polymorphic compare *)
      ("determinism", 7, 15); (* Hashtbl.hash *)
      ("determinism", 8, 17); (* == *)
      ("determinism", 9, 13); (* Obj.magic *)
    ]
    (run [ fx "lib/det_violation.ml" ])

let test_globals_fixture () =
  (* The multi-line binding and the submodule binding are the shapes the
     old regex lint missed. *)
  check_triples "globals findings"
    [ ("globals", 5, 0); ("globals", 9, 2) ]
    (run [ fx "lib/globals_violation.ml" ])

let test_ownership_lock_leak () =
  check_triples "lock without unlock"
    [ ("ownership", 4, 2) ]
    (run [ fx "lib/lock_leak.ml" ])

let test_hygiene_stale_allow () =
  let res = run [ fx "lib/stale_allow.ml" ] in
  check_triples "stale allow" [ ("hygiene", 5, 2) ] res;
  match res.Dlint.diagnostics with
  | [ d ] ->
      Alcotest.(check bool) "says stale" true
        (Astring.String.is_infix ~affix:"stale" d.Lint.d_message)
  | _ -> Alcotest.fail "expected exactly one diagnostic"

let test_hygiene_bad_payloads () =
  check_triples "malformed payloads"
    [ ("hygiene", 3, 16); ("hygiene", 4, 16); ("hygiene", 5, 16) ]
    (run [ fx "lib/bad_payload.ml" ])

let test_clean_file_with_used_allow () =
  let res = run [ fx "lib/clean_allow.ml" ] in
  check_triples "no findings" [] res;
  Alcotest.(check int) "one allow" 1 res.Dlint.allows_total;
  Alcotest.(check int) "allow used" 1 res.Dlint.allows_used

(* --- corpus and runner behavior ------------------------------------ *)

let test_corpus_walk () =
  let res = run [ "lint_fixtures" ] in
  Alcotest.(check int) "files walked" 6 res.Dlint.files_scanned;
  Alcotest.(check int) "all seeded findings" 14
    (List.length res.Dlint.diagnostics)

let test_only_selects_one_pass () =
  let res = run ~only:"determinism" [ "lint_fixtures" ] in
  Alcotest.(check int) "determinism findings only" 7
    (List.length res.Dlint.diagnostics);
  List.iter
    (fun (d : Lint.diagnostic) ->
      Alcotest.(check string) "pass id" "determinism" d.Lint.d_pass)
    res.Dlint.diagnostics

let test_only_hygiene_skips_stales_of_unran_passes () =
  (* Under --only hygiene the determinism pass does not run, so its
     allows cannot be proven stale — but malformed payloads are still
     payload errors. *)
  check_triples "no stale report" [] (run ~only:"hygiene" [ fx "lib/stale_allow.ml" ]);
  Alcotest.(check int) "payload errors still reported" 3
    (List.length
       (run ~only:"hygiene" [ fx "lib/bad_payload.ml" ]).Dlint.diagnostics)

let test_only_unknown_pass_rejected () =
  match run ~only:"nosuchpass" [ fx "lib/clean_allow.ml" ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- clean-run regression over the real source ---------------------- *)

let test_repo_lib_is_clean () =
  (* The real lib/ tree (copied next to the test by dune) must stay
     clean: any new finding is either a real bug or needs a reasoned
     allow at the use site. *)
  let res = run [ "../lib" ] in
  List.iter
    (fun (d : Lint.diagnostic) -> print_endline (Lint.pp_diag d))
    res.Dlint.diagnostics;
  Alcotest.(check int) "no findings in lib/" 0
    (List.length res.Dlint.diagnostics);
  Alcotest.(check bool) "scanned a real tree" true (res.Dlint.files_scanned > 40)

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "determinism" `Quick test_determinism_fixture;
          Alcotest.test_case "globals" `Quick test_globals_fixture;
          Alcotest.test_case "ownership: lock leak" `Quick
            test_ownership_lock_leak;
          Alcotest.test_case "hygiene: stale allow" `Quick
            test_hygiene_stale_allow;
          Alcotest.test_case "hygiene: bad payloads" `Quick
            test_hygiene_bad_payloads;
          Alcotest.test_case "clean file, used allow" `Quick
            test_clean_file_with_used_allow;
        ] );
      ( "runner",
        [
          Alcotest.test_case "corpus walk" `Quick test_corpus_walk;
          Alcotest.test_case "--only selects one pass" `Quick
            test_only_selects_one_pass;
          Alcotest.test_case "--only hygiene staleness gating" `Quick
            test_only_hygiene_skips_stales_of_unran_passes;
          Alcotest.test_case "--only unknown pass" `Quick
            test_only_unknown_pass_rejected;
        ] );
      ( "regression",
        [ Alcotest.test_case "lib/ is clean" `Quick test_repo_lib_is_clean ] );
    ]
