(* Documentation and interface consistency checker, run by the @docs
   alias (a dep of @runtest, so stale docs fail the build).  Twelve
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
   6. docs/PERFORMANCE.md (the host-side engine guide) exists, is
      linked from the index, and also names the current schema version
      — its host-time-gate section describes the `host_ms` column, so
      it must track schema bumps too;
   7. the DLint pass catalogue in docs/LINTS.md and the registry
      ([Dlint.pass_names]) agree in both directions: every registered
      pass is catalogued, and every pass id the catalogue's table names
      is registered;
   8. the SimPlan schema table in docs/SIMPLAN.md and the codec
      ([Simplan.field_names]) agree in both directions: every JSON
      field the codec reads or writes is documented, and every field
      the table's rows open with exists in the codec;
   9. the flight-dump schema tables in docs/FORENSICS.md and the codec
      ([Flight.field_names]) agree in both directions, and the doc
      names the dump schema tag ([Flight.schema]);
  10. every key module the docs/ARCHITECTURE.md layer map lists for a
      library row resolves to a .ml under that row's library path(s),
      so a deleted module cannot stay listed;
  11. every entry-name prefix of the committed summary
      bench/BENCH_baseline.json has a row in docs/BENCHMARKS.md's
      key-conventions table, and every key its entries carry (at any
      depth) is named, backticked, in that file;
  12. every optional parameter a lib/ .mli declares ([?label:]) is
      passed, as [~label] or [?label], by some application in a .ml of
      lib/, bench/, bin/, perfbench/, examples/ or test/ other than its
      own implementation: an option no caller sets is a constant. *)

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

(* --- 3: the metrics catalogue ------------------------------------- *)

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

let catalogue_name_re = Str.regexp {|`\([a-z_]+\.[a-z_]+\)`|}

let check_catalogue () =
  let doc = "docs/OBSERVABILITY.md" in
  let text = read_file doc in
  let registered = registered_names () in
  List.iter
    (fun name ->
      let quoted = "`" ^ name ^ "`" in
      let found =
        try
          ignore (Str.search_forward (Str.regexp_string quoted) text 0);
          true
        with Not_found -> false
      in
      if not found then
        err "metric %s is registered but missing from %s" name doc)
    registered;
  (* Reverse direction: every backtick-quoted layer.metric token in the
     doc must be a registered name (catch typos / renames).  Tokens with
     an uppercase letter or a path-ish shape never match the regex. *)
  let pos = ref 0 in
  (try
     while true do
       pos := Str.search_forward catalogue_name_re text !pos + 1;
       let name = Str.matched_group 1 text in
       (* `layer.*` wildcards and non-metric dotted tokens (module or
          file references) are skipped via an allowlist of prefixes. *)
       let is_metric_prefix =
         List.exists
           (fun p -> String.length name > String.length p
                     && String.sub name 0 (String.length p) = p)
           [ "fabric."; "cache."; "protocol."; "controller."; "dsan.";
             "flight." ]
       in
       if is_metric_prefix && not (List.mem name registered) then
         err "%s documents metric %s, which is not registered" doc name
     done
   with Not_found -> ())

(* --- 4: the DSan invariant catalogue ------------------------------ *)

let check_sanitizer_catalogue () =
  let doc = "docs/SANITIZER.md" in
  let text = read_file doc in
  let invariants = Drust_check.Dsan.invariant_names in
  let metric_names =
    List.filter
      (fun n -> String.length n > 5 && String.sub n 0 5 = "dsan.")
      (registered_names ())
  in
  (* Every invariant the sanitizer can report must be catalogued. *)
  List.iter
    (fun name ->
      let quoted = "`" ^ name ^ "`" in
      let found =
        try
          ignore (Str.search_forward (Str.regexp_string quoted) text 0);
          true
        with Not_found -> false
      in
      if not found then
        err "invariant %s is checked by lib/check/dsan.ml but missing from %s"
          name doc)
    invariants;
  (* Reverse direction: every backtick-quoted dsan.* token in the doc is
     either a checkable invariant or a registered dsan metric. *)
  let pos = ref 0 in
  try
    while true do
      pos := Str.search_forward catalogue_name_re text !pos + 1;
      let name = Str.matched_group 1 text in
      if
        String.length name > 5
        && String.sub name 0 5 = "dsan."
        && (not (List.mem name invariants))
        && not (List.mem name metric_names)
      then
        err "%s documents %s, which is neither a DSan invariant nor a metric"
          doc name
    done
  with Not_found -> ()

(* --- 5: the benchmark summary schema ------------------------------ *)

let names_schema_version doc =
  let text = read_file doc in
  let version = Drust_experiments.Report.schema_version in
  let found =
    try
      ignore (Str.search_forward (Str.regexp_string version) text 0);
      true
    with Not_found -> false
  in
  if not found then
    err "%s does not document the current summary schema %S (bumped in \
         lib/experiments/report.ml?)"
      doc version

let check_bench_schema () = names_schema_version "docs/BENCHMARKS.md"

(* --- 6: the performance guide ------------------------------------- *)

let check_performance_guide () =
  let doc = "docs/PERFORMANCE.md" in
  if not (Sys.file_exists doc) then
    err "%s is missing (the engine internals / host-time guide)" doc
  else begin
    let index = read_file "docs/README.md" in
    let linked =
      try
        ignore (Str.search_forward (Str.regexp_string "PERFORMANCE.md") index 0);
        true
      with Not_found -> false
    in
    if not linked then
      err "docs/README.md does not link to %s" doc;
    (* The guide documents the host_ms column of the summary, so it must
       name the schema version that carries it. *)
    names_schema_version doc
  end

(* --- 7: the DLint pass catalogue ----------------------------------- *)

(* A catalogue row opens with the backtick-quoted pass id:
   "| `determinism` | ...".  Only those leading cells are treated as
   pass ids; backticked tokens elsewhere in the doc (module names,
   metric names) are prose. *)
let lint_row_re = Str.regexp {re|^| `\([a-z_]+\)` ||re}

let check_lint_catalogue () =
  let doc = "docs/LINTS.md" in
  if not (Sys.file_exists doc) then
    err "%s is missing (the DLint pass catalogue)" doc
  else begin
    let index = read_file "docs/README.md" in
    (try ignore (Str.search_forward (Str.regexp_string "LINTS.md") index 0)
     with Not_found -> err "docs/README.md does not link to %s" doc);
    let text = read_file doc in
    let registered = Drust_lint.Dlint.pass_names in
    (* Forward: every registered pass appears in the catalogue. *)
    List.iter
      (fun name ->
        let quoted = "`" ^ name ^ "`" in
        let found =
          try
            ignore (Str.search_forward (Str.regexp_string quoted) text 0);
            true
          with Not_found -> false
        in
        if not found then
          err "lint pass %s is registered in lib/lint/dlint.ml but missing \
               from %s"
            name doc)
      registered;
    (* Reverse: every pass id the catalogue's table opens a row with is
       actually registered. *)
    let pos = ref 0 in
    try
      while true do
        pos := Str.search_forward lint_row_re text !pos + 1;
        let name = Str.matched_group 1 text in
        if name <> "pass" && not (List.mem name registered) then
          err "%s catalogues lint pass %s, which is not registered" doc name
      done
    with Not_found -> ()
  end

(* --- 8: the SimPlan schema table ----------------------------------- *)

(* A schema-table row opens with the backtick-quoted field name:
   "| `nodes` | ...".  Only those leading cells are field names;
   backticked tokens elsewhere in the doc are prose. *)
let plan_row_re = Str.regexp {re|^| `\([a-z0-9_]+\)` ||re}

let check_simplan_schema () =
  let doc = "docs/SIMPLAN.md" in
  if not (Sys.file_exists doc) then
    err "%s is missing (the SimPlan schema and replay guide)" doc
  else begin
    let index = read_file "docs/README.md" in
    (try ignore (Str.search_forward (Str.regexp_string "SIMPLAN.md") index 0)
     with Not_found -> err "docs/README.md does not link to %s" doc);
    let text = read_file doc in
    let fields = Drust_plan.Simplan.field_names in
    (* Forward: every codec field has a schema-table row. *)
    List.iter
      (fun name ->
        let quoted = "| `" ^ name ^ "`" in
        let found =
          try
            ignore (Str.search_forward (Str.regexp_string quoted) text 0);
            true
          with Not_found -> false
        in
        if not found then
          err "plan field %s is read/written by lib/plan/simplan.ml but has \
               no schema-table row in %s"
            name doc)
      fields;
    (* Reverse: every field a schema-table row opens with is a codec
       field. *)
    let pos = ref 0 in
    (try
       while true do
         pos := Str.search_forward plan_row_re text !pos + 1;
         let name = Str.matched_group 1 text in
         if name <> "field" && not (List.mem name fields) then
           err "%s documents plan field %s, which the codec does not read or \
                write"
             doc name
       done
     with Not_found -> ());
    (* The doc also states the plan envelope's own schema tag. *)
    let tag = Drust_plan.Simplan.plan_schema in
    (try ignore (Str.search_forward (Str.regexp_string tag) text 0)
     with Not_found ->
       err "%s does not name the plan envelope schema %S" doc tag)
  end

(* --- 9: the flight-dump schema tables ------------------------------ *)

(* Same row shape as check 8: a schema-table row opens with the
   backtick-quoted field name ("| `reason` | ...").  The single-letter
   payload fields (t/a/b/c/d) match the same regex. *)
let check_flight_schema () =
  let doc = "docs/FORENSICS.md" in
  if not (Sys.file_exists doc) then
    err "%s is missing (the flight-recorder / post-mortem guide)" doc
  else begin
    let index = read_file "docs/README.md" in
    (try ignore (Str.search_forward (Str.regexp_string "FORENSICS.md") index 0)
     with Not_found -> err "docs/README.md does not link to %s" doc);
    let text = read_file doc in
    let fields = Drust_obs.Flight.field_names in
    (* Forward: every codec field has a schema-table row. *)
    List.iter
      (fun name ->
        let quoted = "| `" ^ name ^ "`" in
        let found =
          try
            ignore (Str.search_forward (Str.regexp_string quoted) text 0);
            true
          with Not_found -> false
        in
        if not found then
          err "dump field %s is read/written by lib/obs/flight.ml but has \
               no schema-table row in %s"
            name doc)
      fields;
    (* Reverse: every field a schema-table row opens with is a codec
       field. *)
    let pos = ref 0 in
    (try
       while true do
         pos := Str.search_forward plan_row_re text !pos + 1;
         let name = Str.matched_group 1 text in
         if name <> "field" && not (List.mem name fields) then
           err "%s documents dump field %s, which the flight codec does not \
                read or write"
             doc name
       done
     with Not_found -> ());
    (* The doc also states the dump's own schema tag. *)
    let tag = Drust_obs.Flight.schema in
    try ignore (Str.search_forward (Str.regexp_string tag) text 0)
    with Not_found -> err "%s does not name the dump schema %S" doc tag
  end

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

(* --- 11: the baseline summary's entry names and keys ---------------- *)

let check_baseline_documented () =
  let doc = "docs/BENCHMARKS.md" and baseline = "bench/BENCH_baseline.json" in
  let module Json = Drust_util.Json in
  let text = read_file doc in
  let names s =
    try
      ignore (Str.search_forward (Str.regexp_string s) text 0);
      true
    with Not_found -> false
  in
  let rec keys = function
    | Json.Obj fields ->
        List.concat_map (fun (k, v) -> k :: keys v) fields
    | _ -> []
  in
  let entries =
    match Json.member "entries" (Json.load ~path:baseline) with
    | Some (Json.Obj entries) -> entries
    | _ -> []
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
        err "%s never names the key `%s` that %s's entries carry" doc k
          baseline)
    (List.sort_uniq String.compare
       (List.concat_map (fun (_, e) -> keys e) entries))

(* --- 12: every declared optional parameter is passed --------------- *)

let optional_label_re = Str.regexp {|?\([a-z_0-9]+\):|}

(* The labels (~l and ?l alike) of every argument applied in [path];
   a file that does not parse (a lint fixture) passes none. *)
let passed_labels path =
  let labels = ref [] in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply (_, args) ->
        List.iter
          (function
            | (Asttypes.Labelled l | Asttypes.Optional l), _ ->
                labels := l :: !labels
            | Asttypes.Nolabel, _ -> ())
          args
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  (match Drust_lint.Lint.parse_file path with
  | Ok structure -> it.structure it structure
  | Error _ -> ());
  List.sort_uniq String.compare !labels

let check_optionals_passed () =
  let ml_files =
    List.concat_map Drust_lint.Lint.ml_files
      [ "lib"; "bench"; "bin"; "perfbench"; "examples"; "test" ]
  in
  let passed = List.map (fun ml -> (ml, passed_labels ml)) ml_files in
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
          if
            not
              (List.exists
                 (fun (ml, labels) -> ml <> own && List.mem label labels)
                 passed)
          then
            err "%s declares ?%s:, which no .ml outside %s passes" mli label
              own)
        (declared 0 []))
    (Drust_lint.Lint.ml_files "lib")

let () =
  check_index ();
  List.iter
    (fun f -> check_paths_in (Filename.concat "docs" f))
    (docs_files ());
  List.iter check_paths_in [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md" ];
  check_catalogue ();
  check_sanitizer_catalogue ();
  check_bench_schema ();
  check_performance_guide ();
  check_lint_catalogue ();
  check_simplan_schema ();
  check_flight_schema ();
  check_layer_map ();
  check_baseline_documented ();
  check_optionals_passed ();
  match List.rev !errors with
  | [] -> print_endline "docs check: OK"
  | msgs ->
      List.iter (Printf.eprintf "docs check: %s\n") msgs;
      exit 1
