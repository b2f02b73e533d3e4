(* DLint framework: parse .ml sources into a compiler-libs Parsetree and
   run named diagnostic passes over them.

   This is the static half of the repo's language-guided story: the
   invariants DSan checks dynamically (docs/SANITIZER.md) have a
   decidable subset — determinism hygiene, no process-global mutable
   state, ownership-API discipline — that can be enforced at the source
   level, before a simulation ever runs.  Passes live in
   [Pass_determinism], [Pass_globals] and [Pass_ownership]; the registry
   and runner live in [Dlint]; the CLI is tools/dlint.ml behind the
   @lint alias.

   Exemptions are use-site attributes, never a side table of paths:

     let cache = Hashtbl.create 64 [@@dlint.allow "globals: <why>"]

   An attribute suppresses matching diagnostics anywhere inside the
   node it annotates.  Every allow must carry a "pass-id: reason"
   payload and must actually suppress something — a stale allow (the
   code no longer trips the pass) is itself a [hygiene] finding, so the
   exemption set cannot rot. *)

type diagnostic = {
  d_pass : string;
  d_file : string;
  d_line : int;
  d_col : int;
  d_message : string;
}

let hygiene = "hygiene"

let compare_diag a b =
  match String.compare a.d_file b.d_file with
  | 0 -> (
      match Int.compare a.d_line b.d_line with
      | 0 -> (
          match Int.compare a.d_col b.d_col with
          | 0 -> String.compare a.d_pass b.d_pass
          | c -> c)
      | c -> c)
  | c -> c

let pp_diag d =
  Printf.sprintf "%s:%d:%d: [%s] %s" d.d_file d.d_line d.d_col d.d_pass
    d.d_message

(* A use-site exemption, bound to the source range of the node its
   attribute annotates. *)
type allow = {
  a_pass : string;
  a_reason : string;
  a_line : int; (* position of the attribute itself, for stale reports *)
  a_col : int;
  a_start : int; (* char-offset range of the governed node *)
  a_stop : int;
  mutable a_used : bool;
}

type file_unit = {
  f_path : string; (* as given on the command line *)
  f_scope : string; (* normalized repo-relative path, for pass scoping *)
  f_structure : Parsetree.structure;
  mutable f_allows : allow list;
}

type ctx = {
  known_passes : string list;
  mutable current : file_unit option;
  mutable diags : diagnostic list;
}

type pass = {
  p_name : string;
  p_doc : string; (* one-line rationale, mirrored in docs/LINTS.md *)
  p_applies : string -> bool; (* over the normalized scope path *)
  p_check : ctx -> file_unit -> unit;
}

(* ------------------------------------------------------------------ *)
(* Paths                                                              *)
(* ------------------------------------------------------------------ *)

let scan_roots = [ "lib"; "bench"; "bin"; "examples" ]

(* Normalize a path to its repo-relative scope: the suffix starting at
   the last path segment named like a scanned tree.  This makes pass
   scoping work whether dlint is invoked from the repo root, from the
   test runner's build directory ("../lib/..."), or on fixture corpora
   laid out as "lint_fixtures/lib/...". *)
let scope_of_path path =
  let segs = String.split_on_char '/' path in
  let root_at =
    List.fold_left
      (fun (i, best) seg ->
        (i + 1, if List.mem seg scan_roots then Some i else best))
      (0, None) segs
    |> snd
  in
  match root_at with
  | Some i -> String.concat "/" (List.filteri (fun j _ -> j >= i) segs)
  | None ->
      (* Strip any leading ./ so bare relative paths compare cleanly. *)
      if String.length path > 2 && String.sub path 0 2 = "./" then
        String.sub path 2 (String.length path - 2)
      else path

let under dir scope = String.starts_with ~prefix:(dir ^ "/") scope

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.sort String.compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then ml_files path
         else if Filename.check_suffix entry ".ml" then [ path ]
         else [])

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

let parse_file path : (Parsetree.structure, diagnostic) result =
  let text = In_channel.with_open_text path In_channel.input_all in
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception exn ->
      let line, col =
        match Location.error_of_exn exn with
        | Some (`Ok err) ->
            let p = err.Location.main.Location.loc.Location.loc_start in
            (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
        | _ -> (1, 0)
      in
      Error
        {
          d_pass = "parse";
          d_file = path;
          d_line = line;
          d_col = col;
          d_message = "file does not parse as OCaml";
        }

(* ------------------------------------------------------------------ *)
(* Emitting and suppression                                           *)
(* ------------------------------------------------------------------ *)

let emit ctx ~pass ~(loc : Location.t) msg =
  let start = loc.Location.loc_start in
  let off = start.Lexing.pos_cnum in
  let suppressed =
    match ctx.current with
    | None -> false
    | Some f ->
        let covering =
          List.filter
            (fun a -> a.a_pass = pass && a.a_start <= off && off <= a.a_stop)
            f.f_allows
        in
        List.iter (fun a -> a.a_used <- true) covering;
        covering <> []
  in
  if not suppressed then
    ctx.diags <-
      {
        d_pass = pass;
        d_file = start.Lexing.pos_fname;
        d_line = start.Lexing.pos_lnum;
        d_col = start.Lexing.pos_cnum - start.Lexing.pos_bol;
        d_message = msg;
      }
      :: ctx.diags

(* ------------------------------------------------------------------ *)
(* Allow attributes                                                   *)
(* ------------------------------------------------------------------ *)

let allow_attr_name = "dlint.allow"

let payload_string (a : Parsetree.attribute) =
  match a.Parsetree.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                _ );
          _;
        };
      ] ->
      Some s
  | _ -> None

let trim = String.trim

(* Collect the [@dlint.allow "pass: reason"] attributes of [structure],
   binding each to the range of the node it annotates.  Malformed
   payloads and unknown pass ids are hygiene findings (emitted only when
   the hygiene pass is selected, via [emit_hygiene]). *)
let collect_allows ctx ~emit_hygiene structure =
  let allows = ref [] in
  let record (attr : Parsetree.attribute) ~start ~stop =
    if attr.Parsetree.attr_name.Location.txt = allow_attr_name then begin
      let aloc = attr.Parsetree.attr_loc.Location.loc_start in
      let line = aloc.Lexing.pos_lnum
      and col = aloc.Lexing.pos_cnum - aloc.Lexing.pos_bol in
      let bad msg =
        if emit_hygiene then
          emit ctx ~pass:hygiene ~loc:attr.Parsetree.attr_loc msg
      in
      match payload_string attr with
      | None ->
          bad
            "malformed [@dlint.allow] payload — expected a string literal \
             \"pass-id: reason\""
      | Some s -> (
          match String.index_opt s ':' with
          | None ->
              bad
                (Printf.sprintf
                   "[@dlint.allow %S] has no \"pass-id: reason\" separator" s)
          | Some i ->
              let pass = trim (String.sub s 0 i) in
              let reason =
                trim (String.sub s (i + 1) (String.length s - i - 1))
              in
              if not (List.mem pass ctx.known_passes) then
                bad
                  (Printf.sprintf
                     "[@dlint.allow] names unknown pass %S (known: %s)" pass
                     (String.concat ", " ctx.known_passes))
              else if reason = "" then
                bad
                  (Printf.sprintf
                     "[@dlint.allow %S] must give a reason after the colon" s)
              else
                allows :=
                  {
                    a_pass = pass;
                    a_reason = reason;
                    a_line = line;
                    a_col = col;
                    a_start = start;
                    a_stop = stop;
                    a_used = false;
                  }
                  :: !allows)
    end
  in
  let range_of (loc : Location.t) =
    (loc.Location.loc_start.Lexing.pos_cnum, loc.Location.loc_end.Lexing.pos_cnum)
  in
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    let start, stop = range_of e.pexp_loc in
    List.iter (record ~start ~stop) e.pexp_attributes;
    default_iterator.expr it e
  in
  let value_binding it (vb : Parsetree.value_binding) =
    let start, stop = range_of vb.pvb_loc in
    List.iter (record ~start ~stop) vb.pvb_attributes;
    default_iterator.value_binding it vb
  in
  let module_binding it (mb : Parsetree.module_binding) =
    let start, stop = range_of mb.pmb_loc in
    List.iter (record ~start ~stop) mb.pmb_attributes;
    default_iterator.module_binding it mb
  in
  let structure_item it (si : Parsetree.structure_item) =
    (match si.pstr_desc with
    (* A floating [@@@dlint.allow "..."] scopes the whole file. *)
    | Pstr_attribute a -> record a ~start:0 ~stop:max_int
    | _ -> ());
    default_iterator.structure_item it si
  in
  let it =
    { default_iterator with expr; value_binding; module_binding; structure_item }
  in
  it.structure it structure;
  List.rev !allows

(* ------------------------------------------------------------------ *)
(* AST helpers shared by passes                                       *)
(* ------------------------------------------------------------------ *)

let ident_name (lid : Longident.t) = String.concat "." (Longident.flatten lid)

(* Unwrap the syntactic noise around a binding's right-hand side so the
   allocation underneath is visible: type constraints, local opens,
   sequencing, and trailing lets ("let t = ... in t"). *)
let rec rhs_head (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _)
  | Pexp_open (_, e)
  | Pexp_sequence (_, e)
  | Pexp_let (_, _, e)
  | Pexp_letmodule (_, _, e) ->
      rhs_head e
  | _ -> e

let apply_head (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      Some (ident_name txt)
  | _ -> None
