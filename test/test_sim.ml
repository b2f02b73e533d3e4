(* Tests for the discrete-event engine: virtual time, process scheduling,
   blocking primitives and resources. *)

module Engine = Drust_sim.Engine
module Resource = Drust_sim.Resource

let checkf = Alcotest.check (Alcotest.float 1e-12)

let test_clock_starts_at_zero () =
  let e = Engine.create () in
  checkf "t=0" 0.0 (Engine.now e)

let test_schedule_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~at:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~at:3.0 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  checkf "final time" 3.0 (Engine.now e)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~at:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_schedule_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:5.0 (fun () ->
      Alcotest.(check bool) "raises" true
        (try
           Engine.schedule e ~at:1.0 (fun () -> ());
           false
         with Invalid_argument _ -> true));
  Engine.run e

(* A NaN time is rejected by the engine itself, before it reaches the
   queue: the message names the engine, and nothing is queued. *)
let rejects_nan name f () =
  let e = Engine.create () in
  (match f e with
  | () -> Alcotest.failf "%s: NaN accepted" name
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: engine's own words (%s)" name msg)
        true
        (String.starts_with ~prefix:"Engine." msg));
  Alcotest.(check int) (name ^ ": nothing queued") 0 (Engine.pushes e)

let test_schedule_nan_rejected =
  rejects_nan "schedule ~at:nan" (fun e ->
      Engine.schedule e ~at:nan (fun () -> ()))

let test_schedule_after_nan_rejected =
  rejects_nan "schedule_after nan" (fun e ->
      Engine.schedule_after e nan (fun () -> ()))

let test_spawn_nan_rejected =
  rejects_nan "spawn ~at:nan" (fun e ->
      ignore (Engine.spawn ~at:nan e (fun () -> ())))

let test_delay () =
  let e = Engine.create () in
  let finished = ref (-1.0) in
  ignore
    (Engine.spawn e (fun () ->
         Engine.delay e 1.5;
         Engine.delay e 0.5;
         finished := Engine.now e));
  Engine.run e;
  checkf "delays add" 2.0 !finished

let test_spawn_at () =
  let e = Engine.create () in
  let started = ref (-1.0) in
  ignore (Engine.spawn ~at:4.0 e (fun () -> started := Engine.now e));
  Engine.run e;
  checkf "starts at 4" 4.0 !started

let test_join () =
  let e = Engine.create () in
  let order = ref [] in
  let child =
    Engine.spawn e (fun () ->
        Engine.delay e 1.0;
        order := "child" :: !order)
  in
  ignore
    (Engine.spawn e (fun () ->
         Engine.join e child;
         order := "parent" :: !order));
  Engine.run e;
  Alcotest.(check (list string)) "join order" [ "child"; "parent" ] (List.rev !order)

let test_join_already_done () =
  let e = Engine.create () in
  let child = Engine.spawn e (fun () -> ()) in
  let joined = ref false in
  ignore
    (Engine.spawn ~at:1.0 e (fun () ->
         Engine.join e child;
         joined := true));
  Engine.run e;
  Alcotest.(check bool) "joined" true !joined

let test_process_failure_propagates () =
  let e = Engine.create () in
  ignore (Engine.spawn e (fun () -> failwith "boom"));
  Alcotest.(check bool) "run raises Process_failure" true
    (try
       Engine.run e;
       false
     with Engine.Process_failure (Failure msg) -> String.equal msg "boom")

(* A NaN delay is rejected in the process that asked for it: that
   process fails, and the engine runs everything else to completion. *)
let test_delay_nan_fails_its_process () =
  let e = Engine.create () in
  let sibling_done = ref false in
  ignore (Engine.spawn e (fun () -> Engine.delay e nan));
  ignore
    (Engine.spawn e (fun () ->
         for _ = 1 to 3 do
           Engine.delay e 1e-6
         done;
         sibling_done := true));
  (match Engine.run e with
  | () -> Alcotest.fail "NaN delay accepted"
  | exception Engine.Process_failure (Invalid_argument _) -> ()
  | exception e -> Alcotest.failf "escaped: %s" (Printexc.to_string e));
  Alcotest.(check bool) "sibling finished" true !sibling_done;
  Alcotest.(check bool) "nothing left pending" true (not (Engine.step e))

let test_join_reraises () =
  let e = Engine.create () in
  let child = Engine.spawn e (fun () -> failwith "child-died") in
  let saw = ref false in
  ignore
    (Engine.spawn ~at:1.0 e (fun () ->
         try Engine.join e child
         with Engine.Process_failure (Failure msg) when String.equal msg "child-died" ->
           saw := true));
  (try Engine.run e with Engine.Process_failure _ -> ());
  Alcotest.(check bool) "join re-raised" true !saw

(* The engine's one handler tells processes apart by the one it set
   running: a process resumed by another through [suspend], one woken
   from a delay and one that raises each end as itself, and joining
   each reports its own outcome. *)
let test_processes_end_as_themselves () =
  let e = Engine.create () in
  let wakeup = ref ignore in
  let a =
    Engine.spawn e (fun () ->
        Engine.suspend (fun resume -> wakeup := resume);
        Engine.delay e 2e-6;
        failwith "a")
  in
  let b =
    Engine.spawn e (fun () ->
        Engine.delay e 1e-6;
        !wakeup ();
        Engine.delay e 3e-6)
  in
  let c = Engine.spawn e (fun () -> Engine.delay e 0.0) in
  let seen = ref [] in
  let watch name h =
    ignore
      (Engine.spawn e (fun () ->
           let outcome =
             match Engine.join e h with
             | () -> "finished"
             | exception Engine.Process_failure (Failure msg) -> "failed " ^ msg
           in
           seen := Printf.sprintf "%s %s at %g" name outcome (Engine.now e)
                   :: !seen))
  in
  watch "a" a;
  watch "b" b;
  watch "c" c;
  (try Engine.run e with Engine.Process_failure _ -> ());
  Alcotest.(check (list string))
    "each join saw its own process end"
    [ "c finished at 0"; "a failed a at 3e-06"; "b finished at 4e-06" ]
    (List.rev !seen)

let test_yield_interleaves () =
  let e = Engine.create () in
  let log = ref [] in
  let worker name =
    Engine.spawn e (fun () ->
        for i = 1 to 3 do
          log := Printf.sprintf "%s%d" name i :: !log;
          Engine.delay e 0.0
        done)
  in
  ignore (worker "a");
  ignore (worker "b");
  Engine.run e;
  Alcotest.(check (list string)) "interleaved"
    [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Resource *)

let test_resource_serializes () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 in
  let finish = ref [] in
  let worker name =
    Engine.spawn e (fun () ->
        Resource.acquire r;
        Engine.delay e 1.0;
        Resource.release r;
        finish := (name, Engine.now e) :: !finish)
  in
  ignore (worker "a");
  ignore (worker "b");
  Engine.run e;
  (* Capacity 1: the second worker finishes one second after the first. *)
  let times = List.sort compare (List.map snd !finish) in
  Alcotest.(check (list (float 1e-9))) "staggered" [ 1.0; 2.0 ] times

let test_resource_parallel_within_capacity () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:2 in
  let finish = ref [] in
  for _ = 1 to 2 do
    ignore
      (Engine.spawn e (fun () ->
           Resource.acquire r;
           Engine.delay e 1.0;
           Resource.release r;
           finish := Engine.now e :: !finish))
  done;
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "both at t=1" [ 1.0; 1.0 ] !finish

let test_resource_fifo_fairness () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 in
  let order = ref [] in
  for i = 0 to 4 do
    ignore
      (Engine.spawn e (fun () ->
           Resource.acquire r;
           Engine.delay e 0.1;
           Resource.release r;
           order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_resource_release_unheld () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 in
  Alcotest.(check bool) "raises" true
    (try
       Resource.release r;
       false
     with Invalid_argument _ -> true)

let test_resource_utilization () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:2 in
  ignore
    (Engine.spawn e (fun () ->
         Resource.acquire r;
         Engine.delay e 1.0;
         Resource.release r;
         Engine.delay e 1.0));
  Engine.run e;
  (* One of two cores busy for 1s out of a 2s window = 0.25. *)
  let u = Resource.utilization r ~now:(Engine.now e) in
  Alcotest.(check (float 1e-9)) "utilization" 0.25 u

(* Property: however many processes contend, a resource never exceeds its
   capacity and always drains back to zero. *)
let prop_resource_capacity =
  QCheck.Test.make ~name:"resource never exceeds capacity" ~count:100
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(1 -- 20) (int_range 1 5)))
    (fun (capacity, jobs) ->
      let e = Engine.create () in
      let r = Resource.create e ~capacity in
      let holders = ref 0 and max_seen = ref 0 and finished = ref 0 in
      List.iter
        (fun dur ->
          ignore
            (Engine.spawn e (fun () ->
                 Resource.acquire r;
                 incr holders;
                 max_seen := max !max_seen !holders;
                 Engine.delay e (Float.of_int dur *. 0.01);
                 decr holders;
                 Resource.release r;
                 incr finished)))
        jobs;
      Engine.run e;
      !max_seen <= capacity && !holders = 0 && !finished = List.length jobs)

(* ------------------------------------------------------------------ *)
(* Timer wakeups *)

(* Reference for the engine's wakeup order: every blocking call parks
   through a resumer that queues the continuation at the back of the
   current instant, so a delay is a timer event followed by a second,
   trampolined queue entry. *)
module Two_hop = struct
  open Effect.Deep
  module Pqueue = Drust_util.Pqueue

  type t = { q : (unit -> unit) Pqueue.t; mutable clock : float }
  type handle = { mutable finished : bool; mutable waiters : (unit -> unit) list }
  type _ Effect.t += Park : ((unit -> unit) -> unit) -> unit Effect.t

  let create () = { q = Pqueue.create (); clock = 0.0 }
  let schedule t ~at f = Pqueue.push t.q ~time:at f

  let spawn t body =
    let h = { finished = false; waiters = [] } in
    let retc () =
      h.finished <- true;
      List.iter (fun w -> schedule t ~at:t.clock w) (List.rev h.waiters)
    in
    let effc (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option =
      match eff with
      | Park register ->
          Some
            (fun k ->
              register (fun () -> schedule t ~at:t.clock (fun () -> continue k ())))
      | _ -> None
    in
    schedule t ~at:t.clock (fun () -> match_with body () { retc; exnc = raise; effc });
    h

  let delay t dt =
    Effect.perform (Park (fun resume -> schedule t ~at:(t.clock +. dt) resume))

  let join h =
    if not h.finished then
      Effect.perform (Park (fun resume -> h.waiters <- resume :: h.waiters))

  let run t =
    while not (Pqueue.is_empty t.q) do
      let f = Pqueue.pop_exn t.q in
      t.clock <- Pqueue.last_time t.q;
      f ()
    done
end

type 'h api = {
  spawn : (unit -> unit) -> 'h;
  delay : float -> unit;
  yield : unit -> unit;
  join : 'h -> unit;
  after : float -> (unit -> unit) -> unit;
  now : unit -> float;
  run : unit -> unit;
}

let engine_api () =
  let e = Engine.create () in
  {
    spawn = (fun body -> Engine.spawn e body);
    delay = Engine.delay e;
    yield = (fun () -> Engine.delay e 0.0);
    join = Engine.join e;
    after = Engine.schedule_after e;
    now = (fun () -> Engine.now e);
    run = (fun () -> Engine.run e);
  }

let two_hop_api () =
  let t = Two_hop.create () in
  {
    spawn = Two_hop.spawn t;
    delay = Two_hop.delay t;
    yield = (fun () -> Two_hop.delay t 0.0);
    join = Two_hop.join;
    after = (fun dt f -> Two_hop.schedule t ~at:(t.Two_hop.clock +. dt) f);
    now = (fun () -> t.Two_hop.clock);
    run = (fun () -> Two_hop.run t);
  }

(* One process per script, all started at t=0, logging (process, step,
   time) before every step and at the end.  Steps: 0-3 delay that many
   microseconds (0 is a zero delay, tying with everything due now), 4
   yield, 5 arm a 1 us timer that logs, 6 join the previous process. *)
let replay_scripts api scripts =
  let log = ref [] in
  let note p i = log := (p, i, api.now ()) :: !log in
  let handles = Array.make (List.length scripts) None in
  List.iteri
    (fun p script ->
      handles.(p) <-
        Some
          (api.spawn (fun () ->
               List.iteri
                 (fun i step ->
                   note p i;
                   match step with
                   | 4 -> api.yield ()
                   | 5 -> api.after 1e-6 (fun () -> note p (100 + i))
                   | 6 -> (
                       match if p > 0 then handles.(p - 1) else None with
                       | Some h -> api.join h
                       | None -> api.yield ())
                   | n -> api.delay (float_of_int n *. 1e-6))
                 script;
               note p (List.length script))))
    scripts;
  api.run ();
  List.rev !log

let prop_one_hop_matches_two_hop =
  QCheck.Test.make ~name:"one-hop wakeups dispatch in two-hop order" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 6)
        (list_of_size Gen.(int_range 0 10) (int_bound 6)))
    (fun scripts ->
      replay_scripts (engine_api ()) scripts
      = replay_scripts (two_hop_api ()) scripts)

(* Either way a delay wakes, the engine reports the queued path's
   counts: one queue entry, two logical events and one park per delay,
   plus each process's start. *)
let check_delay_counts e ~procs ~n =
  Alcotest.(check int) "one queue entry per delay" (procs * (n + 1))
    (Engine.pushes e);
  Alcotest.(check int) "two logical events per delay"
    (procs * ((2 * n) + 1))
    (Engine.dispatched e);
  Alcotest.(check int) "one park per delay" (procs * n) (Engine.suspends e)

(* A lone sleeper's wake is always the next pop, so it wakes in place and
   allocates nothing.  Two sleepers, the second half a microsecond
   behind so that no two wakes tie, each wake while the other's is
   pending: every wake is queued, and allocates only the runtime's
   continuation. *)
let test_delay_allocation b =
  let n = 10_000 in
  let e = Engine.create () in
  Alloc_budget.check b "lone process's Engine.delay, woken in place" ~max:0.0
    (Alloc_budget.per_call ~n e
       ~run:(fun () -> Engine.run e)
       (fun _ -> Engine.delay e 1e-6));
  check_delay_counts e ~procs:1 ~n;
  let e = Engine.create () in
  List.iter
    (fun at ->
      ignore
        (Engine.spawn e ~at (fun () ->
             for _ = 1 to n do
               Engine.delay e 1e-6
             done)))
    [ 0.0; 0.5e-6 ];
  let w0 = Gc.minor_words () in
  Engine.run e;
  Alloc_budget.check b "Engine.delay queued behind another sleeper" ~max:3.0
    ((Gc.minor_words () -. w0) /. float_of_int (2 * n));
  check_delay_counts e ~procs:2 ~n

(* ---- In-place wakes keep the queue's (time, seq) order ----

   Each case logs (time, label) pairs.  Its expected order is derived by
   hand from the queue's rule, earliest time first and, among equal
   times, lowest sequence number (push order) first, as if every wake
   were a queue entry; the comments number the pushes.  The counts are
   the queued path's too. *)

let logger e =
  let log = ref [] in
  let note label = log := (Engine.now e, label) :: !log in
  (log, note)

let check_order name expected log =
  Alcotest.(check (list (pair (float 1e-12) string)))
    name expected (List.rev !log)

let check_counts e ~pushes ~dispatched ~suspends =
  Alcotest.(check int) "pushes" pushes (Engine.pushes e);
  Alcotest.(check int) "dispatched" dispatched (Engine.dispatched e);
  Alcotest.(check int) "suspends" suspends (Engine.suspends e)

(* #0 the spawn at 0; #1 the wake at 1; #2 the wake at 3.  Nothing else
   is ever pending, so both wakes are in place. *)
let test_wake_lone_sleeper () =
  let e = Engine.create () in
  let log, note = logger e in
  ignore
    (Engine.spawn e (fun () ->
         note "start";
         Engine.delay e 1.0;
         note "woke 1";
         Engine.delay e 2.0;
         note "woke 2"));
  Engine.run e;
  check_order "lone sleeper"
    [ (0.0, "start"); (1.0, "woke 1"); (3.0, "woke 2") ]
    log;
  check_counts e ~pushes:3 ~dispatched:5 ~suspends:2

(* #0 a callback at 1; #1 the spawn at 0; #2 the wake at 1.  The wake
   ties with #0 on time and loses on sequence: the callback runs first. *)
let test_wake_tied_with_earlier_entry () =
  let e = Engine.create () in
  let log, note = logger e in
  Engine.schedule e ~at:1.0 (fun () -> note "callback");
  ignore
    (Engine.spawn e (fun () ->
         note "start";
         Engine.delay e 1.0;
         note "woke"));
  Engine.run e;
  check_order "tie goes to the earlier push"
    [ (0.0, "start"); (1.0, "callback"); (1.0, "woke") ]
    log;
  check_counts e ~pushes:3 ~dispatched:4 ~suspends:1

(* #0 the spawn at 0; #1 a callback the process queues at 0, in the now
   ring; #2 the wake at 1e-6.  #1 is due first. *)
let test_wake_behind_pending_ring_entry () =
  let e = Engine.create () in
  let log, note = logger e in
  ignore
    (Engine.spawn e (fun () ->
         note "start";
         Engine.schedule e ~at:(Engine.now e) (fun () -> note "ring");
         Engine.delay e 1e-6;
         note "woke"));
  Engine.run e;
  check_order "the ring entry runs before the wake"
    [ (0.0, "start"); (0.0, "ring"); (1e-6, "woke") ]
    log;
  check_counts e ~pushes:3 ~dispatched:4 ~suspends:1

(* [delay 0.] wakes at the current instant, behind everything already
   due then.  #0 the spawn at 1; #1 a callback at 1, both pushed before
   the clock reached 1; #2 the first wake, at 1 but behind #1; #3 a
   callback #1 queues at 1, in the now ring; #4 the wake's continuation,
   re-queued behind #3; #5 the second wake, with nothing else pending,
   so in place. *)
let test_wake_zero_delay () =
  let e = Engine.create () in
  let log, note = logger e in
  ignore
    (Engine.spawn e ~at:1.0 (fun () ->
         note "start";
         Engine.delay e 0.0;
         note "woke 1";
         Engine.delay e 0.0;
         note "woke 2"));
  Engine.schedule e ~at:1.0 (fun () ->
      note "callback";
      Engine.schedule e ~at:(Engine.now e) (fun () -> note "ring"));
  Engine.run e;
  check_order "zero delays"
    [
      (1.0, "start");
      (1.0, "callback");
      (1.0, "ring");
      (1.0, "woke 1");
      (1.0, "woke 2");
    ]
    log;
  check_counts e ~pushes:6 ~dispatched:7 ~suspends:2

(* #0 the spawn at 0; #1 a [schedule_after] callback at 0.5; #2 the wake
   at 1, after #1, so queued; #3 a second callback at 3; #4 the wake at
   2, before #3, so in place. *)
let test_wake_after_scheduled_callback () =
  let e = Engine.create () in
  let log, note = logger e in
  ignore
    (Engine.spawn e (fun () ->
         note "start";
         Engine.schedule_after e 0.5 (fun () -> note "callback 1");
         Engine.delay e 1.0;
         note "woke 1";
         Engine.schedule_after e 2.0 (fun () -> note "callback 2");
         Engine.delay e 1.0;
         note "woke 2"));
  Engine.run e;
  check_order "a callback due first runs first"
    [
      (0.0, "start");
      (0.5, "callback 1");
      (1.0, "woke 1");
      (2.0, "woke 2");
      (3.0, "callback 2");
    ]
    log;
  check_counts e ~pushes:5 ~dispatched:7 ~suspends:2

(* Only a process can sleep.  Called outside one, [delay] raises, even
   on an idle engine where a wake would be the next pop, and from a
   callback the queue runs; nothing moves. *)
let test_delay_outside_process_raises () =
  let e = Engine.create () in
  (match Engine.delay e 1.0 with
  | () -> Alcotest.fail "delay on an idle engine returned"
  | exception Effect.Unhandled _ -> ());
  checkf "clock unmoved" 0.0 (Engine.now e);
  check_counts e ~pushes:0 ~dispatched:0 ~suspends:0;
  Engine.schedule e ~at:1.0 (fun () -> Engine.delay e 1.0);
  (match Engine.run e with
  | () -> Alcotest.fail "delay in a callback returned"
  | exception Effect.Unhandled _ -> ());
  checkf "clock at the callback" 1.0 (Engine.now e);
  check_counts e ~pushes:1 ~dispatched:1 ~suspends:0

let test_resource_use_allocation b =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 in
  Alloc_budget.check b "uncontended Resource acquire+release with a delay"
    ~max:3.0
    (Alloc_budget.per_call e
       ~run:(fun () -> Engine.run e)
       (fun _ ->
         Resource.acquire r;
         Engine.delay e 1e-6;
         Resource.release r))

(* A spawn whose body returns at once, run by a yield of the spawning
   process: the process record with its wake and start closures, and the
   runtime's fiber, under the engine's one effect handler. *)
let test_spawn_allocation b =
  let e = Engine.create () in
  Alloc_budget.check b "trivial Engine.spawn, run by a yield" ~max:26.0
    (Alloc_budget.per_call e
       ~run:(fun () -> Engine.run e)
       (fun _ ->
         ignore (Engine.spawn e ignore);
         Engine.delay e 0.0))

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "clock zero" `Quick test_clock_starts_at_zero;
          Alcotest.test_case "schedule order" `Quick test_schedule_order;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "past rejected" `Quick test_schedule_past_rejected;
          Alcotest.test_case "schedule NaN rejected" `Quick
            test_schedule_nan_rejected;
          Alcotest.test_case "schedule_after NaN rejected" `Quick
            test_schedule_after_nan_rejected;
          Alcotest.test_case "spawn NaN rejected" `Quick test_spawn_nan_rejected;
          Alcotest.test_case "delay" `Quick test_delay;
          Alcotest.test_case "spawn at" `Quick test_spawn_at;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "join done" `Quick test_join_already_done;
          Alcotest.test_case "failure propagates" `Quick test_process_failure_propagates;
          Alcotest.test_case "join re-raises" `Quick test_join_reraises;
          Alcotest.test_case "processes end as themselves" `Quick
            test_processes_end_as_themselves;
          Alcotest.test_case "NaN delay fails its process" `Quick
            test_delay_nan_fails_its_process;
          Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
          Alcotest.test_case "delay one hop, allocation-lean" `Quick
            (Alloc_budget.case test_delay_allocation);
          Alcotest.test_case "in-place wake, lone sleeper" `Quick
            test_wake_lone_sleeper;
          Alcotest.test_case "in-place wake, tie with an earlier push" `Quick
            test_wake_tied_with_earlier_entry;
          Alcotest.test_case "in-place wake, pending ring entry" `Quick
            test_wake_behind_pending_ring_entry;
          Alcotest.test_case "in-place wake, zero delay" `Quick
            test_wake_zero_delay;
          Alcotest.test_case "in-place wake, earlier callback" `Quick
            test_wake_after_scheduled_callback;
          Alcotest.test_case "delay outside a process raises" `Quick
            test_delay_outside_process_raises;
          Alcotest.test_case "spawn allocation budget" `Quick
            (Alloc_budget.case test_spawn_allocation);
          QCheck_alcotest.to_alcotest prop_one_hop_matches_two_hop;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serializes" `Quick test_resource_serializes;
          Alcotest.test_case "parallel within capacity" `Quick
            test_resource_parallel_within_capacity;
          Alcotest.test_case "fifo fairness" `Quick test_resource_fifo_fairness;
          Alcotest.test_case "release unheld" `Quick test_resource_release_unheld;
          Alcotest.test_case "utilization" `Quick test_resource_utilization;
          Alcotest.test_case "use allocation budget" `Quick
            (Alloc_budget.case test_resource_use_allocation);
          QCheck_alcotest.to_alcotest prop_resource_capacity;
        ] );
    ]
