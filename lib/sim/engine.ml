open Effect.Deep

(* A float-only record, so its field is stored unboxed: handing a wake
   time over allocates nothing.  The clock is a [Vclock.t] for the same
   reason, and so that the tracer can read it without a closure. *)
type instant = {
  mutable time : float;
      (* the target time of the [Sleep] being performed, handed from
         [delay] to the handler that queues the sleeping process *)
}

type process_state = Running | Finished | Failed of exn

(* A spawned process: its [join] handle and its timer slot in one
   record.  The slot is reused by every [delay] the process
   performs: while it sleeps, [parked] holds its continuation and [wake]
   is the queue callback that resumes it. *)
type process = {
  mutable state : process_state;
  mutable join_waiters : (unit -> unit) list;
  mutable parked : (unit, unit) continuation;
  mutable requeued : bool;
  mutable wake : unit -> unit; (* set once, right after the record *)
}

type process_handle = process

type t = {
  events : (unit -> unit) Drust_util.Pqueue.t;
  clock : Drust_util.Vclock.t;
  instant : instant;
  mutable failures : exn list;
  mutable dispatched : int;
      (* logical events run: one per queue pop, plus one per resumption
         of a sleeping process that ran inside its timer's event *)
  mutable suspends : int;
  mutable current : process;
      (* the process whose fiber runs: set before every start and
         resumption, read by the handler when the fiber parks or ends *)
  mutable in_process : bool;
      (* a fiber runs: set with [current], cleared when the fiber parks
         or ends, so that [delay] can tell a process from a callback *)
  mutable handler : (unit, unit) handler; (* the engine's one handler *)
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
    "determinism: empty-slot sentinel for a process's parked continuation; \
     a process's wake callback is queued only after a real one is parked"])

let[@inline] now t = t.clock.now
let clock t = t.clock
let dispatched t = t.dispatched
let suspends t = t.suspends

(* Total pushes ever made to the event queue: the raw queue entries
   behind [dispatched]. *)
let pushes t = Drust_util.Pqueue.pushed t.events

(* Called as [not (at >= now)], which also catches a NaN [at] here
   rather than in the queue's words. *)
let in_the_past at now =
  invalid_arg
    (Printf.sprintf "Engine.schedule: at=%g is in the past or NaN (now=%g)"
       at now)

let schedule t ~at f =
  let now = now t in
  if not (at >= now) then in_the_past at now;
  Drust_util.Pqueue.push t.events ~time:at f

let schedule_after t dt f =
  let now = now t in
  let at = now +. dt in
  if not (at >= now) then in_the_past at now;
  Drust_util.Pqueue.push t.events ~time:at f

(* [schedule] at the current instant, which can be neither past nor
   NaN.  Inlined, so the instant reaches the queue unboxed. *)
let[@inline] schedule_now t f = Drust_util.Pqueue.push t.events ~time:(now t) f

let suspend register = Effect.perform (Suspend register)

let[@inline] enter t p =
  t.current <- p;
  t.in_process <- true

(* A sleeping process's wake event.  The process must resume where
   [suspend]'s resumer would put it: a timer event queueing the
   continuation at the back of its instant.  When nothing else is due at
   this instant, that second entry would be the next pop, so the
   continuation runs right here, in one queue hop.  Otherwise the process
   re-queues itself once, into exactly the slot the second entry would
   have taken. *)
let wake t p =
  if (not p.requeued) && Drust_util.Pqueue.has_due t.events then begin
    p.requeued <- true;
    schedule_now t p.wake
  end
  else begin
    (* The resumption counts as its own logical event, like the
       trampolined resumption of [suspend]. *)
    if not p.requeued then t.dispatched <- t.dispatched + 1;
    p.requeued <- false;
    let k = p.parked in
    p.parked <- no_continuation;
    enter t p;
    continue k ()
  end

let rec schedule_all t = function
  | [] -> ()
  | f :: rest ->
      schedule_now t f;
      schedule_all t rest

let finish_process t p state =
  p.state <- state;
  let waiters = p.join_waiters in
  p.join_waiters <- [];
  schedule_all t (List.rev waiters)

(* The engine's deep effect handler, shared by all its processes: each
   fiber runs with [t.current] set to its process.  A [Suspend] effect
   hands the one-shot resumer to the registration function; resuming
   trampolines through the event queue so process steps never nest.
   [Sleep] parks the continuation in the process record instead. *)
let handler t : (unit, unit) handler =
  let park_sleep =
    Some
      (fun k ->
        let p = t.current in
        t.in_process <- false;
        t.suspends <- t.suspends + 1;
        p.parked <- k;
        Drust_util.Pqueue.push t.events ~time:t.instant.time p.wake)
  in
  {
    retc =
      (fun () ->
        t.in_process <- false;
        finish_process t t.current Finished);
    exnc =
      (fun e ->
        t.in_process <- false;
        t.failures <- e :: t.failures;
        finish_process t t.current (Failed e));
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) continuation -> unit) option ->
        match eff with
        | Sleep -> park_sleep
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                let p = t.current in
                t.in_process <- false;
                t.suspends <- t.suspends + 1;
                let resumed = ref false in
                let resume v =
                  if !resumed then failwith "Engine: process resumed twice";
                  resumed := true;
                  schedule_now t (fun () ->
                      enter t p;
                      continue k v)
                in
                register resume)
        | _ -> None);
  }

(* A process record whose [wake] the caller has still to set. *)
let fresh_process state =
  {
    state;
    join_waiters = [];
    parked = no_continuation;
    requeued = false;
    wake = ignore;
  }

let create () =
  let t =
    {
      events = Drust_util.Pqueue.create ();
      clock = { now = 0.0 };
      instant = { time = 0.0 };
      failures = [];
      dispatched = 0;
      suspends = 0;
      current = fresh_process Finished;
      in_process = false;
      handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) };
    }
  in
  t.handler <- handler t;
  t

let start_fiber t p body =
  enter t p;
  match_with body () t.handler

(* The record is made before its [wake] closure, not as a recursive
   value, which would cost a second, placeholder copy of it. *)
let spawn ?at t body =
  let p = fresh_process Running in
  p.wake <- (fun () -> wake t p);
  let start () = start_fiber t p body in
  (match at with
  | None -> schedule_now t start
  | Some at -> schedule t ~at start);
  p

(* When the wake would be the very next pop, queueing it and parking
   would only hand control back to this process at once: the process
   runs on in place, with the clock, the queue and the counts moved as
   the queued path would move them.  A call outside any process still
   performs the effect, and so still raises. *)
let[@inline] delay t dt =
  if not (dt >= 0.0) then invalid_arg "Engine.delay: negative or NaN delay";
  let at = now t +. dt in
  if t.in_process && Drust_util.Pqueue.elide_next t.events ~time:at then begin
    t.clock.now <- at;
    (* the timer's pop and the resumption it runs directly *)
    t.dispatched <- t.dispatched + 2;
    t.suspends <- t.suspends + 1
  end
  else begin
    t.instant.time <- at;
    Effect.perform Sleep
  end

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
    t.clock.now <- Drust_util.Pqueue.last_time t.events;
    t.dispatched <- t.dispatched + 1;
    f ();
    true
  end

let run t =
  while not (Drust_util.Pqueue.is_empty t.events) do
    let f = Drust_util.Pqueue.pop_exn t.events in
    t.clock.now <- Drust_util.Pqueue.last_time t.events;
    t.dispatched <- t.dispatched + 1;
    f ()
  done;
  match List.rev t.failures with
  | [] -> ()
  | e :: _ ->
      t.failures <- [];
      raise (Process_failure e)
