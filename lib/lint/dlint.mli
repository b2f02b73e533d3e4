(** DLint: registry and runner for the AST-based static-analysis passes.

    The framework (diagnostics, allow attributes, parsing, AST helpers)
    is in {!Lint}; individual passes are [Pass_determinism],
    [Pass_globals] and [Pass_ownership].  This module owns the registry
    — the single source of truth that [tools/dlint.ml] (the @lint
    alias), [tools/check_docs.ml] (docs/LINTS.md agreement, both ways)
    and [test/test_lint.ml] all consult. *)

val passes : Lint.pass list
(** The registered passes, in catalogue order.  Includes the synthetic
    [hygiene] pass (allow staleness), whose findings the framework
    emits itself. *)

val pass_names : string list
(** Names of {!passes}, for [--list-passes] and the docs check. *)

type result = {
  diagnostics : Lint.diagnostic list;  (** sorted by file/line/col/pass *)
  files_scanned : int;
  allows_used : int;  (** allow attributes that fired *)
  allows_total : int;
}

val run : ?only:string -> paths:string list -> unit -> result
(** [run ~paths ()] parses every [.ml] under the given files or
    directory roots and runs every registered pass that applies to each
    file's repo-relative scope.  [?only] restricts to a single pass by
    name (raising [Invalid_argument] on an unknown name); allows for
    unselected passes are then exempt from staleness. *)
