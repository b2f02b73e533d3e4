(** The experiment dispatch table shared by the bench CLI's direct
    path and [--plan] replay.

    Both entry points funnel through {!find}, so a replayed suite
    plan runs exactly the code a direct invocation runs — which is what
    makes [--plan] output trivially byte-identical.  The CLI-only
    [profile] experiment stays in bench/main.ml; it is a host-side
    diagnostic, not a plan-replayable experiment. *)

type opts = {
  node_counts : int list option;  (** fig5's sweep sizes, when pinned *)
  churn_nodes : int option;  (** churn's cluster size (default 64) *)
  seed : int;  (** base seed for the seeded experiments *)
}
(** The knobs a suite plan (or the CLI) can turn.  {!default_opts}
    reproduces the historical defaults exactly. *)

val default_opts : opts
(** [{ node_counts = None; churn_nodes = None; seed = 42 }]. *)

val names : string list
(** The plan-replayable experiment names, in canonical run order. *)

val find : string -> (opts -> unit) option
(** Look up one experiment by name.  The returned thunk first emits the
    single-experiment suite plan it is about to run as
    [<name>.plan.json] next to the results ({!Report.emit_plan}) —
    both the direct CLI path and [--plan] replay dispatch through here,
    so both emit the same artifact. *)

val suite_plan_of : opts -> name:string -> string list -> Drust_plan.Simplan.t
(** The suite plan describing this invocation, for [--emit-plan]. *)

val opts_of_suite : Drust_plan.Simplan.suite -> opts
(** The inverse: knobs carried by a loaded suite plan. *)
