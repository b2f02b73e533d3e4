(** DLint framework: Parsetree parsing, diagnostics, use-site allow
    attributes, and the AST helpers shared by passes.

    See docs/LINTS.md for the pass catalogue and the exemption
    mechanism; {!Dlint} for the registry and runner. *)

type diagnostic = {
  d_pass : string;
  d_file : string;
  d_line : int;
  d_col : int;
  d_message : string;
}

val hygiene : string
(** Name of the synthetic exemption-hygiene pass ("hygiene"). *)

val compare_diag : diagnostic -> diagnostic -> int
(** Order by file, line, column, then pass name. *)

val pp_diag : diagnostic -> string
(** ["file:line:col: [pass] message"]. *)

type allow = {
  a_pass : string;
  a_reason : string;
  a_line : int;
  a_col : int;
  a_start : int;
  a_stop : int;
  mutable a_used : bool;
}
(** A [\[@dlint.allow "pass-id: reason"\]] exemption, bound to the
    char-offset range of the node its attribute annotates. *)

type file_unit = {
  f_path : string;
  f_scope : string;
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
  p_doc : string;
  p_applies : string -> bool;
  p_check : ctx -> file_unit -> unit;
}

val scan_roots : string list
(** The tree roots dlint scans: lib, bench, bin, examples. *)

val scope_of_path : string -> string
(** Normalize a path to its repo-relative scope (the suffix starting at
    the last segment named like a scanned tree), so pass scoping works
    from any working directory and over fixture corpora. *)

val under : string -> string -> bool
(** [under "lib" scope] is true when [scope] is inside the lib/ tree. *)

val ml_files : string -> string list
(** Every [.ml] under a directory, depth-first, name-sorted. *)

val parse_file : string -> (Parsetree.structure, diagnostic) result
(** Parse one file; syntax errors come back as a ["parse"] diagnostic. *)

val emit : ctx -> pass:string -> loc:Location.t -> string -> unit
(** Record a diagnostic unless a covering allow suppresses it — in
    which case the allow is marked used, feeding the staleness check. *)

val collect_allows :
  ctx -> emit_hygiene:bool -> Parsetree.structure -> allow list
(** Gather the file's [\[@dlint.allow\]] attributes (on expressions,
    value bindings, module bindings, or floating at file scope).
    Malformed payloads, unknown pass ids and empty reasons are hygiene
    findings when [emit_hygiene] is set. *)

val ident_name : Longident.t -> string
(** Flatten a long identifier to its dotted source form. *)

val rhs_head : Parsetree.expression -> Parsetree.expression
(** Unwrap constraints, local opens, sequences and trailing lets around
    a binding's right-hand side. *)

val apply_head : Parsetree.expression -> string option
(** The dotted name of the applied identifier, for application nodes. *)
