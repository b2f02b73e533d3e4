open Cmdliner
module Simplan = Drust_plan.Simplan

let int_in ~lo ~hi ~expects =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expects %s, got %S" expects s))
  in
  Arg.conv (parse, Format.pp_print_int)

let int_at_least n =
  int_in ~lo:n ~hi:max_int ~expects:(Printf.sprintf "an integer >= %d" n)

let cluster_size ~min =
  let cap = Drust_memory.Gaddr.max_nodes in
  int_in ~lo:min ~hi:cap
    ~expects:(Printf.sprintf "a cluster size in [%d, %d]" min cap)

let jobs =
  Term.(
    const Drust_experiments.Parallel.set_default_jobs
    $ Arg.(
        value
        & opt (int_at_least 1) 1
        & info [ "j"; "jobs" ] ~docv:"N"
            ~doc:
              "Size of the domain pool used to fan out independent \
               simulated clusters (one cluster stays strictly \
               single-domain).  Output is byte-identical for every \
               $(docv)"))

let sanitize =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Attach the DSan shadow-state sanitizer to every cluster the run \
           creates and report any coherence/ownership invariant violations \
           (exit status 3 if any are found)")

let plan =
  Arg.(
    value
    & opt (some string) None
    & info [ "plan" ] ~docv:"FILE"
        ~doc:
          "Replay the plan in $(docv) instead of building one from the \
           flags; output is byte-identical to the run that emitted it")

let emit_plan =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-plan" ] ~docv:"FILE"
        ~doc:"Also write this run's SimPlan artifact to $(docv)")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"PATH"
        ~doc:
          "Write the traced run's Chrome trace_event JSON (load it in \
           Perfetto or chrome://tracing) to $(docv)")

let usage_error ~prog ?hint fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: %s\n" prog msg;
      Option.iter prerr_endline hint;
      exit 2)
    fmt

(* Load + validate, then route by kind: each executable replays one
   kind and points at the other for the rest.  Every message starts
   with the file, once. *)
let load ~prog file =
  match Simplan.load ~path:file with
  | Error e -> usage_error ~prog "%s" e
  | Ok plan -> (
      match Simplan.validate plan with
      | Ok () -> plan
      | Error errs ->
          usage_error ~prog "%s: invalid plan: %s" file
            (String.concat "; " errs))

let sim_plan ~prog file =
  let plan = load ~prog file in
  match plan.Simplan.spec with
  | Simplan.Sim _ -> plan
  | Simplan.Suite _ ->
      usage_error ~prog
        "%s: a suite plan; replay it with bench/main.exe --plan" file

let suite_plan ~prog file =
  match (load ~prog file).Simplan.spec with
  | Simplan.Suite s -> s
  | Simplan.Sim _ ->
      usage_error ~prog
        "%s: a sim plan; replay it with bin/drust_sim.exe --plan" file

let wall_clock_note dt = Printf.eprintf "(wall-clock: %.2f s)\n%!" dt

(* A malformed command line exits 2, like every usage error, rather
   than Cmdliner's 124. *)
let main info term =
  match Cmd.eval_value (Cmd.v info term) with
  | Ok (`Ok () | `Version | `Help) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit Cmd.Exit.internal_error
