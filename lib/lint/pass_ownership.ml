(* ownership — discipline for the lock API.

   DRust's coherence protocol is safe because the source language
   guarantees unique ownership and scoped borrows (the paper's §3), and
   [Dmutex] guards global objects.  The lock has runtime checks (and
   DSan's lock-discipline invariant), but its common misuse is visible
   in the syntax tree and can be rejected before anything runs.  Checked
   over lib/ and examples/: [Dmutex.lock] in a function with no
   [Dmutex.unlock] (and no [Dmutex.with_lock]) in the same function —
   every caller leaks the lock unless some other function unlocks on its
   behalf, a pairing the code cannot show; functions that deliberately
   split the pair (backend vtables) carry an allow naming the pairing
   site. *)

let name = "ownership"

let doc = "Dmutex.lock without a reachable unlock in the same function"

let lock_idents = [ "Dmutex.lock" ]
let unlock_idents = [ "Dmutex.unlock"; "Dmutex.with_lock" ]

(* Collapse a curried [fun a b -> ...] chain to its body. *)
let rec uncurry (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) -> uncurry body
  | _ -> e

(* Collect lock/unlock identifier uses in [e] without crossing into
   nested functions (each closure is its own scope). *)
let lock_profile (e : Parsetree.expression) =
  let locks = ref [] and unlocks = ref 0 in
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> ()
    | Pexp_ident { txt; loc } ->
        let n = Lint.ident_name txt in
        if List.mem n lock_idents then locks := loc :: !locks
        else if List.mem n unlock_idents then incr unlocks;
        default_iterator.expr it e
    | _ -> default_iterator.expr it e
  in
  let it = { default_iterator with expr } in
  it.expr it e;
  (List.rev !locks, !unlocks)

let check ctx (f : Lint.file_unit) =
  (* Function scopes already analyzed as part of an outer curry chain,
     keyed by source range. *)
  let seen_chain = Hashtbl.create 16 in
  let range (e : Parsetree.expression) =
    ( e.pexp_loc.Location.loc_start.Lexing.pos_cnum,
      e.pexp_loc.Location.loc_end.Lexing.pos_cnum )
  in
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_fun _ when not (Hashtbl.mem seen_chain (range e)) ->
        (* Mark every link of the curry chain so inner [fun]s are not
           re-analyzed as separate scopes. *)
        let rec mark e =
          match e.Parsetree.pexp_desc with
          | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) ->
              Hashtbl.replace seen_chain (range e) ();
              mark body
          | _ -> ()
        in
        mark e;
        let body = uncurry e in
        let locks, unlocks = lock_profile body in
        if locks <> [] && unlocks = 0 then
          List.iter
            (fun loc ->
              Lint.emit ctx ~pass:name ~loc
                "Dmutex.lock with no reachable Dmutex.unlock (or \
                 Dmutex.with_lock) in the same function — the lock leaks \
                 on every path; pair it here or allow with the pairing \
                 site named")
            locks
    | _ -> ());
    default_iterator.expr it e
  in
  let it = { default_iterator with expr } in
  it.structure it f.Lint.f_structure

let pass =
  {
    Lint.p_name = name;
    p_doc = doc;
    p_applies =
      (fun scope -> Lint.under "lib" scope || Lint.under "examples" scope);
    p_check = check;
  }
