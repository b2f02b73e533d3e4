(** The experiment dispatch table shared by the bench CLI's direct
    path and [--plan] replay.

    Both entry points funnel through {!find}, so a replayed suite
    plan runs exactly the code a direct invocation runs — which is what
    makes [--plan] output trivially byte-identical.  The CLI-only
    [profile] experiment stays in bench/main.ml; it is a host-side
    diagnostic, not a plan-replayable experiment. *)

val names : string list
(** The plan-replayable experiment names, in canonical run order. *)

val find : string -> (Drust_plan.Simplan.suite -> unit) option
(** Look up one experiment by name.  The returned thunk runs it under
    the suite's knobs (fig5's sweep sizes, churn's cluster size, the
    base seed), after emitting the single-experiment suite plan it is
    about to run as [<name>.plan.json] next to the results
    ({!Report.emit_plan}) — both the direct CLI path and [--plan] replay
    dispatch through here, so both emit the same artifact. *)
