open Effect.Deep

(* A float-only record, so its field is stored unboxed. *)
type instant = { mutable time : float }

type t = {
  events : (unit -> unit) Drust_util.Pqueue.t;
  mutable clock : float;
  instant : instant;
      (* the target time of the [Sleep] being performed, handed from
         [delay] to the handler that queues the sleeper *)
  mutable failures : exn list;
  mutable dispatched : int;
      (* logical events run: one per queue pop, plus one per sleeper
         resumption that ran inside its timer's event *)
  mutable suspends : int;
}

(* A process's timer slot, made once per process and reused by every
   [delay] and [yield] it performs: while the process sleeps, [parked]
   holds its continuation and [wake] is the queue callback that resumes
   it. *)
type sleeper = {
  mutable parked : (unit, unit) continuation;
  mutable requeued : bool;
  wake : unit -> unit;
}

type process_state = Running | Finished | Failed of exn

type process_handle = {
  mutable state : process_state;
  mutable join_waiters : (unit -> unit) list;
}

type _ Effect.t +=
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Sleep : unit Effect.t (* wake at [instant] *)

exception Process_failure of exn

let () =
  Printexc.register_printer (function
    | Process_failure inner ->
        Some ("Engine.Process_failure(" ^ Printexc.to_string inner ^ ")")
    | _ -> None)

let no_continuation : (unit, unit) continuation =
  (Obj.magic ()
  [@dlint.allow
    "determinism: empty-slot sentinel for a sleeper's parked continuation; \
     a sleeper's wake callback is queued only after a real one is parked"])

let create () =
  {
    events = Drust_util.Pqueue.create ();
    clock = 0.0;
    instant = { time = 0.0 };
    failures = [];
    dispatched = 0;
    suspends = 0;
  }

let[@inline] now t = t.clock
let dispatched t = t.dispatched
let suspends t = t.suspends

(* Total pushes ever made to the event queue: the raw queue entries
   behind [dispatched]. *)
let pushes t = Drust_util.Pqueue.pushed t.events

let in_the_past at now =
  invalid_arg
    (Printf.sprintf "Engine.schedule: at=%g is in the past (now=%g)" at now)

let schedule t ~at f =
  if at < t.clock then in_the_past at t.clock;
  Drust_util.Pqueue.push t.events ~time:at f

let schedule_after t dt f =
  let at = t.clock +. dt in
  if at < t.clock then in_the_past at t.clock;
  Drust_util.Pqueue.push t.events ~time:at f

let suspend register = Effect.perform (Suspend register)

(* A sleeper's wake event.  The process must resume where [suspend]'s
   resumer would put it: a timer event queueing the continuation at the
   back of its instant.  When nothing else is due at this instant, that
   second entry would be the next pop, so the continuation runs right
   here, in one queue hop.  Otherwise the sleeper re-queues itself once,
   into exactly the slot the second entry would have taken. *)
let wake t s () =
  if (not s.requeued) && Drust_util.Pqueue.has_due t.events then begin
    s.requeued <- true;
    Drust_util.Pqueue.push t.events ~time:t.clock s.wake
  end
  else begin
    (* The resumption counts as its own logical event, like the
       trampolined resumption of [suspend]. *)
    if not s.requeued then t.dispatched <- t.dispatched + 1;
    s.requeued <- false;
    let k = s.parked in
    s.parked <- no_continuation;
    continue k ()
  end

let finish_handle t handle state =
  handle.state <- state;
  let waiters = handle.join_waiters in
  handle.join_waiters <- [];
  List.iter (fun resume -> schedule t ~at:t.clock resume) (List.rev waiters)

(* Run a process body under the engine's deep effect handler.  A [Suspend]
   effect hands the one-shot resumer to the registration function; resuming
   trampolines through the event queue so process steps never nest.
   [Sleep] parks the continuation in the process's sleeper instead. *)
let run_fiber t handle body =
  let rec sleeper =
    {
      parked = no_continuation;
      requeued = false;
      wake = (fun () -> wake t sleeper ());
    }
  in
  let park_sleep =
    Some
      (fun k ->
        t.suspends <- t.suspends + 1;
        sleeper.parked <- k;
        Drust_util.Pqueue.push t.events ~time:t.instant.time sleeper.wake)
  in
  let handler : (unit, unit) handler =
    {
      retc = (fun () -> finish_handle t handle Finished);
      exnc =
        (fun e ->
          t.failures <- e :: t.failures;
          finish_handle t handle (Failed e));
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Sleep -> park_sleep
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.suspends <- t.suspends + 1;
                  let resumed = ref false in
                  let resume v =
                    if !resumed then
                      failwith "Engine: process resumed twice";
                    resumed := true;
                    schedule t ~at:t.clock (fun () -> continue k v)
                  in
                  register resume)
          | _ -> None);
    }
  in
  match_with body () handler

let spawn ?at t body =
  let at = match at with None -> t.clock | Some a -> a in
  let handle = { state = Running; join_waiters = [] } in
  schedule t ~at (fun () -> run_fiber t handle body);
  handle

let[@inline] delay t dt =
  if not (dt >= 0.0) then invalid_arg "Engine.delay: negative or NaN delay";
  t.instant.time <- t.clock +. dt;
  Effect.perform Sleep

let yield t = delay t 0.0

let join _t handle =
  (match handle.state with
  | Finished | Failed _ -> ()
  | Running ->
      suspend (fun resume ->
          handle.join_waiters <- (fun () -> resume ()) :: handle.join_waiters));
  match handle.state with
  | Failed e -> raise (Process_failure e)
  | Finished -> ()
  | Running -> assert false

let step t =
  if Drust_util.Pqueue.is_empty t.events then false
  else begin
    let f = Drust_util.Pqueue.pop_exn t.events in
    t.clock <- Drust_util.Pqueue.last_time t.events;
    t.dispatched <- t.dispatched + 1;
    f ();
    true
  end

let run t =
  while not (Drust_util.Pqueue.is_empty t.events) do
    let f = Drust_util.Pqueue.pop_exn t.events in
    t.clock <- Drust_util.Pqueue.last_time t.events;
    t.dispatched <- t.dispatched + 1;
    f ()
  done;
  match List.rev t.failures with
  | [] -> ()
  | e :: _ ->
      t.failures <- [];
      raise (Process_failure e)

let pending_events t = Drust_util.Pqueue.length t.events
