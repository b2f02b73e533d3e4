(* DLint registry and runner: the entry point behind tools/dlint.ml and
   test/test_lint.ml.  The framework itself lives in [Lint]; the passes
   in [Pass_determinism], [Pass_globals], [Pass_ownership].  docs/LINTS.md
   catalogues the registry and tools/check_docs.ml keeps the two in
   sync both ways. *)

(* The hygiene pass has no checker of its own: the framework emits its
   findings (malformed allow payloads, unknown pass ids, empty reasons,
   stale allows) while collecting and settling exemptions.  It is registered so it can be listed, selected with
   --only, named in allow payload validation, and catalogued. *)
let hygiene_pass =
  {
    Lint.p_name = Lint.hygiene;
    p_doc =
      "exemption hygiene: every [@dlint.allow] carries \"pass-id: reason\" \
       and still suppresses a finding; stale allows fail the lint";
    p_applies = (fun _ -> true);
    p_check = (fun _ _ -> ());
  }

let passes =
  [ Pass_determinism.pass; Pass_globals.pass; Pass_ownership.pass;
    hygiene_pass ]

let pass_names = List.map (fun p -> p.Lint.p_name) passes

type result = {
  diagnostics : Lint.diagnostic list;
  files_scanned : int;
  allows_used : int;
  allows_total : int;
}

let run ?only ~paths () =
  let selected =
    match only with
    | None -> passes
    | Some name -> List.filter (fun p -> p.Lint.p_name = name) passes
  in
  if selected = [] then
    invalid_arg
      (Printf.sprintf "dlint: unknown pass %S (known: %s)"
         (Option.value only ~default:"")
         (String.concat ", " pass_names));
  let hygiene_on = List.exists (fun p -> p.Lint.p_name = Lint.hygiene) selected in
  let ctx = { Lint.known_passes = pass_names; current = None; diags = [] } in
  let files =
    List.concat_map
      (fun p ->
        if Sys.is_directory p then Lint.ml_files p
        else if Filename.check_suffix p ".ml" then [ p ]
        else [])
      paths
  in
  let allows_total = ref 0 in
  let allows_used = ref 0 in
  List.iter
    (fun path ->
      match Lint.parse_file path with
      | Error d -> ctx.Lint.diags <- d :: ctx.Lint.diags
      | Ok structure ->
          let f =
            {
              Lint.f_path = path;
              f_scope = Lint.scope_of_path path;
              f_structure = structure;
              f_allows = [];
            }
          in
          ctx.Lint.current <- Some f;
          f.Lint.f_allows <-
            Lint.collect_allows ctx ~emit_hygiene:hygiene_on structure;
          allows_total := !allows_total + List.length f.Lint.f_allows;
          let ran =
            List.filter
              (fun p ->
                p.Lint.p_name <> Lint.hygiene
                && p.Lint.p_applies f.Lint.f_scope)
              selected
          in
          List.iter (fun p -> p.Lint.p_check ctx f) ran;
          (* A stale allow is only reportable if its pass actually ran
             over this file (under --only, allows for unselected passes
             are left alone). *)
          if hygiene_on then
            List.iter
              (fun (a : Lint.allow) ->
                if
                  (not a.Lint.a_used)
                  && List.exists
                       (fun p -> p.Lint.p_name = a.Lint.a_pass)
                       ran
                then
                  ctx.Lint.diags <-
                    {
                      Lint.d_pass = Lint.hygiene;
                      d_file = path;
                      d_line = a.Lint.a_line;
                      d_col = a.Lint.a_col;
                      d_message =
                        Printf.sprintf
                          "stale [@dlint.allow \"%s: %s\"] — no %s finding \
                           left at this site; remove the exemption"
                          a.Lint.a_pass a.Lint.a_reason a.Lint.a_pass;
                    }
                    :: ctx.Lint.diags)
              f.Lint.f_allows;
          allows_used :=
            !allows_used
            + List.length
                (List.filter (fun a -> a.Lint.a_used) f.Lint.f_allows);
          ctx.Lint.current <- None)
    files;
  {
    diagnostics = List.sort Lint.compare_diag ctx.Lint.diags;
    files_scanned = List.length files;
    allows_used = !allows_used;
    allows_total = !allows_total;
  }
