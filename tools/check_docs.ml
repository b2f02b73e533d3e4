(* Documentation and interface consistency checker, run by the @docs
   alias (a dep of @runtest, so stale docs fail the build).  Thirteen
   checks:

   1. every relative .md link in docs/README.md (the index) resolves,
      and every docs/*.md file is reachable from the index;
   2. every repo path that docs/*.md, README.md, DESIGN.md or
      EXPERIMENTS.md names (lib/..., bench/..., examples/...,
      perfbench/..., with a .ml/.mli/.md/.exe/.py/.json extension)
      exists — .exe is resolved to the executable's .ml source;
   3. every metric name registered at runtime appears in
      docs/OBSERVABILITY.md, and vice versa every `layer.metric` name
      the catalogue tables list is actually registered;
   4. the DSan invariant catalogue in docs/SANITIZER.md and
      [Dsan.invariant_names] agree in both directions;
   5. docs/BENCHMARKS.md names the summary schema version this build
      writes ([Report.schema_version]), so a schema bump cannot ship
      without its documentation;
   6. docs/PERFORMANCE.md (the host-side engine guide) exists and also
      names the current schema version — its host-time-gate section
      describes the `host_ms` column, so it must track schema bumps too;
   7. the DLint pass catalogue in docs/LINTS.md and the registry
      ([Dlint.pass_names]) agree in both directions: every registered
      pass is catalogued, and every pass id the catalogue's table names
      is registered;
   8. the SimPlan schema table in docs/SIMPLAN.md and the field names
      derived from the plan codec's declaration ([Simplan.field_names])
      agree in both directions, and the doc names the plan envelope's
      schema tag ([Simplan.plan_schema]);
   9. the flight-dump schema tables in docs/FORENSICS.md and the field
      names derived from the dump codec's declaration
      ([Flight.field_names]) agree in both directions, and the doc
      names the dump schema tag ([Flight.schema]);
  10. every key module the docs/ARCHITECTURE.md layer map lists for a
      library row resolves to a .ml under that row's library path(s),
      so a deleted module cannot stay listed;
  11. every entry-name prefix of the committed summary
      bench/BENCH_baseline.json (read through the summary codec, so it
      must decode) has a row in docs/BENCHMARKS.md's
      key-conventions table, and every key the summary codec declares
      ([Report.summary_keys], which covers every key the baseline can
      carry) is named, backticked, in that file;
  12. every optional parameter a lib/ .mli declares ([?label:]) is
      passed, as [~label] or [?label], by some application in a .ml of
      lib/, bench/, bin/, perfbench/, examples/ or tools/ (this checker
      aside) other than its own implementation: an option no caller
      sets is a constant;
  13. every value a lib/ .mli exports (nested [module M : sig]s
      included) is referenced from some .ml of lib/, bench/, bin/,
      perfbench/, examples/ or tools/ other than its own
      implementation — as [M.name], as [X.name] through a
      [module X = ...M] alias, or unqualified in a file that opens [M]:
      an export nothing calls is dead interface.

   test/ is not a caller for checks 12 and 13: an export or an option
   only a test reaches is test-only interface.  The few kept on purpose
   are the test seams in [test_seams], each with its reason; an entry
   that names nothing, or whose export has gained a caller, fails.

   A missing catalogue doc fails its check; whether a doc is linked
   from the index is check 1's business alone. *)

let errors = ref []
let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt
let read_file path = In_channel.with_open_text path In_channel.input_all

let docs_files () =
  Sys.readdir "docs" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".md")
  |> List.sort compare

(* --- 1: the index ------------------------------------------------- *)

let md_link_re = Str.regexp {|](\([A-Za-z0-9_./-]+\.md\))|}

let check_index () =
  let index = read_file "docs/README.md" in
  let referenced = ref [] in
  let pos = ref 0 in
  (try
     while true do
       pos := Str.search_forward md_link_re index !pos + 1;
       let target = Str.matched_group 1 index in
       let path =
         if String.length target > 3 && String.sub target 0 3 = "../" then
           String.sub target 3 (String.length target - 3)
         else Filename.concat "docs" target
       in
       referenced := path :: !referenced;
       if not (Sys.file_exists path) then
         err "docs/README.md links to %s, which does not exist" target
     done
   with Not_found -> ());
  List.iter
    (fun f ->
      if f <> "README.md" then
        let path = Filename.concat "docs" f in
        if not (List.mem path !referenced) then
          err "docs/%s is not referenced from the docs/README.md index" f)
    (docs_files ())

(* --- 2: repo paths named in docs ---------------------------------- *)

let path_re =
  Str.regexp
    {|\(perfbench\|lib\|bench\|bin\|examples\|test\|tools\|docs\)/[A-Za-z0-9_./-]+\.\(mli\|ml\|md\|exe\|py\|json\)|}

let check_paths_in doc =
  let text = read_file doc in
  let pos = ref 0 in
  try
    while true do
      ignore (Str.search_forward path_re text !pos);
      let p = Str.matched_string text in
      (* Resume after the whole path: "bench/run.py" inside
         "perfbench/run.py" is not a second path. *)
      pos := Str.match_end ();
      let target =
        if Filename.check_suffix p ".exe" then Filename.remove_extension p ^ ".ml"
        else p
      in
      if not (Sys.file_exists target) then
        err "%s names %s, but %s does not exist" doc p target
    done
  with Not_found -> ()

(* --- 3, 4, 7, 8, 9: catalogues ---------------------------------------- *)

let mentions text s =
  try
    ignore (Str.search_forward (Str.regexp_string s) text 0);
    true
  with Not_found -> false

(* Group 1 of every match of [re] in [text], in order. *)
let tokens re text =
  let rec go pos acc =
    match Str.search_forward re text pos with
    | start -> go (start + 1) (Str.matched_group 1 text :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

(* A doc catalogue and its code-side [names] agree in both directions:
   every name is quoted in [doc] (as "| `name`", a table row's leading
   cell, when [row]), and every token [token_re] finds in [doc] — those
   starting with one of [prefixes] when it is non-empty, [skip] words
   (table headers) aside — is one of [known] (default [names]). *)
let check_catalogue ~doc ~what ~source ~names ?(known = names) ?(row = false)
    ?(prefixes = []) ?(skip = []) token_re =
  if not (Sys.file_exists doc) then
    err "%s is missing (the %s catalogue)" doc what
  else begin
    let text = read_file doc in
    List.iter
      (fun name ->
        let quoted = (if row then "| `" else "`") ^ name ^ "`" in
        if not (mentions text quoted) then
          err "%s %s is defined in %s but missing from %s" what name source doc)
      names;
    List.iter
      (fun token ->
        if
          (prefixes = []
          || List.exists
               (fun p ->
                 String.length token > String.length p
                 && String.starts_with ~prefix:p token)
               prefixes)
          && (not (List.mem token skip))
          && not (List.mem token known)
        then
          err "%s documents %s %s, which %s does not define" doc what token
            source)
      (tokens token_re text)
  end

(* A doc states a schema tag the code writes, so a bump cannot ship
   without its documentation. *)
let names_schema doc what tag =
  if not (Sys.file_exists doc) then err "%s is missing" doc
  else if not (mentions (read_file doc) tag) then
    err "%s does not name the current %s %S" doc what tag

(* Materialize every registration site: cluster creation registers the
   fabric and cache instruments, a protocol-stats read registers the
   protocol counters, Controller.start registers its own, and attaching
   the DSan sanitizer registers dsan.violations.  Nothing here runs the
   engine. *)
let registered_names () =
  let cluster =
    Drust_machine.Cluster.create
      { Drust_machine.Params.default with Drust_machine.Params.nodes = 2 }
  in
  let ctx = Drust_machine.Ctx.make cluster ~node:0 in
  ignore (Drust_core.Protocol.moves ctx);
  let ctl = Drust_runtime.Controller.start cluster in
  Drust_runtime.Controller.stop ctl;
  let dsan = Drust_check.Dsan.attach cluster in
  Drust_check.Dsan.detach dsan;
  Drust_obs.Metrics.names (Drust_machine.Cluster.metrics cluster)

(* A backticked `layer.metric` token; tokens with an uppercase letter or
   a path-ish shape never match. *)
let catalogue_name_re = Str.regexp {|`\([a-z_]+\.[a-z_]+\)`|}

(* A table row opens with the backticked name: "| `determinism` | ...".
   Only those leading cells are names; backticked tokens elsewhere in
   the doc are prose.  The flight dump's single-letter payload fields
   (t/a/b/c/d) match too. *)
let row_re = Str.regexp {re|^| `\([a-z0-9_]+\)` ||re}

let check_catalogues () =
  let registered = registered_names () in
  (* 3: the metrics catalogue.  Non-metric dotted tokens (module or
     file references) fall outside the prefix allowlist. *)
  check_catalogue ~doc:"docs/OBSERVABILITY.md" ~what:"metric"
    ~source:"the cluster registry" ~names:registered
    ~prefixes:
      [ "fabric."; "cache."; "protocol."; "controller."; "dsan."; "flight." ]
    catalogue_name_re;
  (* 4: the DSan invariant catalogue; its dsan.* tokens may also name
     the sanitizer's own metrics. *)
  let invariants = Drust_check.Dsan.invariant_names in
  check_catalogue ~doc:"docs/SANITIZER.md" ~what:"DSan invariant"
    ~source:"lib/check/dsan.ml" ~names:invariants
    ~known:
      (invariants
      @ List.filter (String.starts_with ~prefix:"dsan.") registered)
    ~prefixes:[ "dsan." ] catalogue_name_re;
  (* 7: the DLint pass catalogue. *)
  check_catalogue ~doc:"docs/LINTS.md" ~what:"lint pass"
    ~source:"lib/lint/dlint.ml" ~names:Drust_lint.Dlint.pass_names
    ~skip:[ "pass" ] row_re;
  (* 8: the SimPlan schema table. *)
  check_catalogue ~doc:"docs/SIMPLAN.md" ~what:"plan field"
    ~source:"lib/plan/simplan.ml" ~names:Drust_plan.Simplan.field_names
    ~row:true ~skip:[ "field" ] row_re;
  names_schema "docs/SIMPLAN.md" "plan envelope schema"
    Drust_plan.Simplan.plan_schema;
  (* 9: the flight-dump schema tables. *)
  check_catalogue ~doc:"docs/FORENSICS.md" ~what:"dump field"
    ~source:"lib/obs/flight.ml" ~names:Drust_obs.Flight.field_names
    ~row:true ~skip:[ "field" ] row_re;
  names_schema "docs/FORENSICS.md" "dump schema" Drust_obs.Flight.schema

(* --- 5, 6: the benchmark summary schema ----------------------------- *)

(* The performance guide documents the host_ms column of the summary,
   so it tracks schema bumps too. *)
let check_bench_schema () =
  let version = Drust_experiments.Report.schema_version in
  names_schema "docs/BENCHMARKS.md" "summary schema" version;
  names_schema "docs/PERFORMANCE.md" "summary schema" version

(* --- 10: the layer map's key modules -------------------------------- *)

(* A library row: "| `lib/x`[, `lib/y`] | contents | key modules |". *)
let layer_row_re = Str.regexp {|^| \(`lib/[^|]*\)|\([^|]*\)|\([^|]*\)|$|}
let backticked_re = Str.regexp {|`\([^`]*\)`|}
let module_name_re = Str.regexp {|[A-Z][A-Za-z0-9_]*$|}

let backticked s =
  let rec go pos acc =
    match Str.search_forward backticked_re s pos with
    | _ ->
        let name = Str.matched_group 1 s in
        go (Str.match_end ()) (name :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

(* Every .ml file name under [dir], recursively (build dirs skipped). *)
let rec ml_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if f.[0] = '.' then []
         else if Sys.is_directory p then ml_files p
         else if Filename.check_suffix f ".ml" then [ f ]
         else [])

let check_layer_map () =
  let doc = "docs/ARCHITECTURE.md" in
  List.iter
    (fun line ->
      if Str.string_match layer_row_re line 0 then begin
        let dirs_cell = Str.matched_group 1 line in
        let modules = backticked (Str.matched_group 3 line) in
        let dirs = backticked dirs_cell in
        let files =
          List.concat_map
            (fun d ->
              if Sys.file_exists d && Sys.is_directory d then ml_files d
              else (
                err "%s lists library %s, which does not exist" doc d;
                []))
            dirs
        in
        List.iter
          (fun m ->
            let file = String.uncapitalize_ascii m ^ ".ml" in
            if not (Str.string_match module_name_re m 0) then
              err "%s lists key module `%s` for %s, which is not a module name"
                doc m (String.concat ", " dirs)
            else if not (List.mem file files) then
              err "%s lists key module %s for %s, but no %s exists there" doc
                m (String.concat ", " dirs) file)
          modules
      end)
    (String.split_on_char '\n' (read_file doc))

(* --- 11: the baseline's entry names, the summary's keys ------------- *)

let check_baseline_documented () =
  let module Report = Drust_experiments.Report in
  let doc = "docs/BENCHMARKS.md" and baseline = "bench/BENCH_baseline.json" in
  let names = mentions (read_file doc) in
  let entries =
    match Report.read_bench_summary ~path:baseline with
    | Ok s -> s.Report.sm_entries
    | Error e ->
        err "%s" e;
        []
  in
  let prefix name =
    match String.index_opt name '/' with
    | Some i -> String.sub name 0 (i + 1)
    | None -> name
  in
  List.iter
    (fun p ->
      if not (names (Printf.sprintf "\n| `%s` |" p)) then
        err "%s has no key-conventions row for the %s entries of %s" doc p
          baseline)
    (List.sort_uniq String.compare (List.map (fun (n, _) -> prefix n) entries));
  List.iter
    (fun k ->
      if not (names (Printf.sprintf "`%s`" k)) then
        err "%s never names the summary key `%s` (Report.summary_keys)" doc k)
    Report.summary_keys

(* --- 12, 13: every declared optional parameter and value is used ----- *)

(* What one .ml uses of other modules: the labels (~l and ?l alike) of
   every argument it applies; every [M.name] it references, with [M] the
   innermost module of the path after resolving the file's
   [module X = ...M] aliases; the modules it opens ([open M],
   [let open M], [M.( ... )]); and its unqualified identifiers.  A file
   that does not parse (a lint fixture) uses nothing. *)
type uses = {
  labels : string list;
  qualified : (string * string) list;
  opened : string list;
  bare : string list;
}

let uses path =
  let labels = ref [] and qualified = ref [] and opened = ref [] in
  let bare = ref [] and aliases = Hashtbl.create 16 in
  let rec modname = function
    | Longident.Lident m -> Option.value (Hashtbl.find_opt aliases m) ~default:m
    | Longident.Ldot (_, m) -> m
    | Longident.Lapply (_, arg) -> modname arg
  in
  let alias x (me : Parsetree.module_expr) =
    match (x, me.Parsetree.pmod_desc) with
    | Some x, Parsetree.Pmod_ident { txt; _ } ->
        Hashtbl.replace aliases x (modname txt)
    | _ -> ()
  in
  let open_ (od : Parsetree.open_declaration) =
    match od.Parsetree.popen_expr.Parsetree.pmod_desc with
    | Parsetree.Pmod_ident { txt; _ } -> opened := modname txt :: !opened
    | _ -> ()
  in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply (_, args) ->
        List.iter
          (function
            | (Asttypes.Labelled l | Asttypes.Optional l), _ ->
                labels := l :: !labels
            | Asttypes.Nolabel, _ -> ())
          args
    | Parsetree.Pexp_ident { txt = Longident.Ldot (m, name); _ } ->
        qualified := (modname m, name) :: !qualified
    | Parsetree.Pexp_ident { txt = Longident.Lident name; _ } ->
        bare := name :: !bare
    | Parsetree.Pexp_open (od, _) -> open_ od
    | Parsetree.Pexp_letmodule ({ txt; _ }, me, _) -> alias txt me
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let structure_item (it : Ast_iterator.iterator) (si : Parsetree.structure_item)
      =
    (match si.Parsetree.pstr_desc with
    | Parsetree.Pstr_open od -> open_ od
    | Parsetree.Pstr_module { pmb_name = { txt; _ }; pmb_expr; _ } ->
        alias txt pmb_expr
    | _ -> ());
    Ast_iterator.default_iterator.structure_item it si
  in
  let it = { Ast_iterator.default_iterator with expr; structure_item } in
  (match Drust_lint.Lint.parse_file path with
  | Ok structure -> it.structure it structure
  | Error _ -> ());
  let uniq l = List.sort_uniq compare l in
  {
    labels = uniq !labels;
    qualified = uniq !qualified;
    opened = uniq !opened;
    bare = uniq !bare;
  }

let optional_label_re = Str.regexp {|?\([a-z_0-9]+\):|}

(* The exports and options that only tests reach, kept as test seams:
   ["Module.value"] for check 13, ["Module ?label"] for check 12. *)
let test_seams =
  [
    ( "Dsan.observe",
      "the injection tests feed synthetic tap events to the shadow state" );
    ("Flight ?cap", "the ring tests wrap a recorder of a few slots");
    ( "Flight.set_enabled",
      "the bit-identity test reruns a workload with the recorder off" );
    ( "Gaddr.with_color",
      "cache and sanitizer tests forge an address under a given colour" );
    ("Gaddr.max_color", "the colour-overflow tests run the colour to its cap");
    ( "Borrow_state.state",
      "the automaton tests read the state each transition leaves" );
    ( "Protocol.group_size",
      "the TBox tests read the bytes a tied group moves as one" );
    ( "Failover.phases",
      "synthetic failover results feed the shared percentile path" );
    ("Churn.phases", "synthetic churn results feed the shared percentile path");
    ("Rng.bits64", "the golden-sequence tests pin the raw generator output");
    ("Span.depth", "the tracer and fabric tests check that no span is left open");
  ]

let seams_found = Hashtbl.create 16

(* An export or option without a caller outside test/ is an error unless
   it is a seam; a seam that has gained such a caller is a stale entry. *)
let judge name ~called report =
  let seam = List.mem_assoc name test_seams in
  if seam then Hashtbl.replace seams_found name ();
  if called && seam then
    err "tools/check_docs.ml lists %s as a test seam, but it has a caller \
         outside test/" name
  else if not (called || seam) then report ()

let check_seams_exist () =
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem seams_found name) then
        err "tools/check_docs.ml lists %s as a test seam, but lib/ declares \
             no such export or option" name)
    test_seams

let module_of path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* 12: an option no caller sets is a constant.  This checker is not
   searched: passing a label to build a registry is not a caller
   choosing a value. *)
let check_optionals_passed files =
  let passed =
    List.filter (fun (ml, _) -> ml <> "tools/check_docs.ml") files
  in
  List.iter
    (fun own ->
      let mli = own ^ "i" in
      let text = if Sys.file_exists mli then read_file mli else "" in
      let rec declared pos acc =
        match Str.search_forward optional_label_re text pos with
        | _ -> declared (Str.match_end ()) (Str.matched_group 1 text :: acc)
        | exception Not_found -> List.sort_uniq String.compare acc
      in
      List.iter
        (fun label ->
          judge
            (module_of own ^ " ?" ^ label)
            ~called:
              (List.exists
                 (fun (ml, u) -> ml <> own && List.mem label u.labels)
                 passed)
            (fun () ->
              err "%s declares ?%s:, which no .ml outside %s passes" mli
                label own))
        (declared 0 []))
    (Drust_lint.Lint.ml_files "lib")

(* The values a lib/ .mli exports, as (module, name): top-level ones
   under the file's module, those of a nested [module M : sig ... end]
   under [M]. *)
let exported mli =
  let lexbuf = Lexing.from_string (read_file mli) in
  Location.init lexbuf mli;
  let rec values m items =
    List.concat_map
      (fun (item : Parsetree.signature_item) ->
        match item.Parsetree.psig_desc with
        | Parsetree.Psig_value vd -> [ (m, vd.Parsetree.pval_name.txt) ]
        | Parsetree.Psig_module
            {
              pmd_name = { txt = Some sub; _ };
              pmd_type = { pmty_desc = Parsetree.Pmty_signature items; _ };
              _;
            } ->
            values sub items
        | _ -> [])
      items
  in
  values (module_of mli) (Parse.interface lexbuf)

(* 13: an export nothing outside its own implementation calls is dead
   interface. *)
let check_exports_used files =
  List.iter
    (fun own ->
      let mli = own ^ "i" in
      if Sys.file_exists mli then
        List.iter
          (fun (m, name) ->
            let used (ml, u) =
              ml <> own
              && (List.mem (m, name) u.qualified
                 || (List.mem m u.opened && List.mem name u.bare))
            in
            judge (m ^ "." ^ name) ~called:(List.exists used files) (fun () ->
                err "%s exports %s.%s, which no .ml outside %s references" mli
                  m name own))
          (exported mli))
    (Drust_lint.Lint.ml_files "lib")

let () =
  check_index ();
  List.iter
    (fun f -> check_paths_in (Filename.concat "docs" f))
    (docs_files ());
  List.iter check_paths_in [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md" ];
  check_catalogues ();
  check_bench_schema ();
  check_layer_map ();
  check_baseline_documented ();
  let files =
    List.concat_map Drust_lint.Lint.ml_files
      [ "lib"; "bench"; "bin"; "perfbench"; "examples"; "tools" ]
    |> List.map (fun ml -> (ml, uses ml))
  in
  check_optionals_passed files;
  check_exports_used files;
  check_seams_exist ();
  match List.rev !errors with
  | [] -> print_endline "docs check: OK"
  | msgs ->
      List.iter (Printf.eprintf "docs check: %s\n") msgs;
      exit 1
