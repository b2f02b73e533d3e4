(** The command-line front end shared by [bin/drust_sim.exe] and
    [bench/main.exe]: the Cmdliner terms both executables take, their
    exit-code mapping, plan loading and kind routing, and the one
    stderr wall-clock note.

    Exit codes: a malformed command line (unknown flag, missing or
    ill-typed value, out-of-range size) and every {!usage_error} exit 2;
    nothing runs before the command line is known to be good. *)

open Cmdliner

(** {1 Value converters} *)

val int_at_least : int -> int Arg.conv
(** An integer [>= n]; anything else is a parse error. *)

val cluster_size : min:int -> int Arg.conv
(** A node count in [[min, Drust_memory.Gaddr.max_nodes]] — the range
    the simulator can build. *)

(** {1 Shared flags} *)

val jobs : unit Term.t
(** [-j]/[--jobs N] (default 1): sets the {!Drust_experiments.Parallel}
    pool size independent clusters fan out over. *)

val sanitize : bool Term.t
(** [--sanitize]: run under the DSan shadow-state sanitizer; any
    violation exits 3. *)

val plan : string option Term.t
(** [--plan FILE]: replay a plan artifact instead of building one from
    the flags. *)

val emit_plan : string option Term.t
(** [--emit-plan FILE]: also save the plan of this run. *)

val trace_out : string option Term.t
(** [--trace-out PATH]: write the traced run's Chrome trace_event JSON
    to exactly [PATH]. *)

(** {1 Errors and plans} *)

val usage_error :
  prog:string -> ?hint:string -> ('a, unit, string, 'b) format4 -> 'a
(** Print ["<prog>: <message>"] (then [hint], if any) to stderr and exit
    2. *)

val sim_plan : prog:string -> string -> Drust_plan.Simplan.t
(** Load and validate the sim plan in a file.  An unreadable, malformed
    or invalid file, or a suite plan, is a {!usage_error} whose message
    starts with the file, once. *)

val suite_plan : prog:string -> string -> Drust_plan.Simplan.suite
(** {!sim_plan} for suite plans (bench's [--plan]). *)

(** {1 Running} *)

val timed : (unit -> 'a) -> 'a * float
(** [f ()] and the host wall-clock seconds it took.  Machine-dependent:
    print it to stderr only, so stdout stays comparable across runs. *)

val wall_clock_note : float -> unit
(** The stderr note ["(wall-clock: S s)"]. *)

val main : Cmd.info -> unit Term.t -> 'a
(** Evaluate the command and exit: 0 on success (or [--help]), 2 on a
    command-line error, Cmdliner's internal-error code on an exception. *)
