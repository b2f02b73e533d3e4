(** Discrete-event simulation engine.

    The engine owns a virtual clock and an event queue.  Simulated
    activities run as {e processes}: ordinary OCaml functions that may call
    the blocking primitives of this library ({!delay}, {!suspend},
    {!join}, [Resource.acquire]...).  Blocking is implemented with
    OCaml 5 effect handlers, so a process suspends mid-function without
    threads and resumes when the event it waits for fires.

    Determinism: events scheduled for the same instant fire in insertion
    order, and all randomness flows through seeded {!Drust_util.Rng}
    generators, so a simulation is a pure function of its configuration. *)

type t
(** An engine instance. *)

type process_handle
(** Handle to a spawned process, used to {!join} it. *)

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds.  Inlined, and read from a
    float-only record, so the read allocates nothing; a caller that
    captures the value in a closure, stores it in a mixed record or
    passes it to a call that is not inlined boxes it there. *)

val clock : t -> Drust_util.Vclock.t
(** The record {!now} reads, for a reader below this library (the span
    tracer) that must see the clock without a closure.  Read-only by
    convention: only the engine moves it. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** [schedule t ~at f] runs callback [f] at virtual time [at].  Raises
    [Invalid_argument] when [at] is in the past or NaN. *)

val schedule_after : t -> float -> (unit -> unit) -> unit
(** [schedule_after t dt f] is [schedule t ~at:(now t +. dt) f], without
    boxing the sum, and rejects a NaN [dt] the same way. *)

val spawn : ?at:float -> t -> (unit -> unit) -> process_handle
(** [spawn t body] starts a new process at time [at] (default: now).
    The body runs inside the engine's effect handler and may block.
    Raises [Invalid_argument] when [at] is in the past or NaN.

    The handler is built once per engine, not per process: it finds the
    running process in the engine, which sets it before each start and
    resumption.  A spawn allocates one process record, which is both the
    handle and the timer slot its delays reuse, plus its wake and start
    closures (17 words), and starting it adds the runtime's fiber. *)

(** {1 Blocking primitives — only valid inside a process} *)

val delay : t -> float -> unit
(** [delay t dt] suspends the calling process for [dt] simulated seconds.
    Raises [Invalid_argument] in the caller when [dt] is negative or NaN,
    and the runtime's [Effect.Unhandled] when called outside a process.
    It resumes in the dispatch position of a timer event at [now + dt]
    that queues the continuation at the back of that instant.

    When that wake would be the very next event popped — nothing else is
    due at the current instant, and nothing in the queue is due at or
    before [now + dt] — the process does not park: the clock moves to
    [now + dt] and [delay] returns in place, allocating nothing.  The
    counts stay as if the wake were queued: {!pushes} grows by one,
    {!dispatched} by two and {!suspends} by one, and the queue spends
    the wake's sequence number.  Otherwise the process parks in a timer
    slot it reuses for every delay, allocating only the runtime's
    continuation, and the wake is one queue entry at [now + dt]; when it
    pops, the process runs directly if nothing else is due then, and
    re-queues itself once at the back of the instant otherwise. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the calling process.  [register] receives a
    one-shot [resume] function; calling [resume v] (from any other process
    or callback) schedules the parked process to continue with value [v] at
    the current virtual time.  Raises [Failure] if resumed twice. *)

val join : t -> process_handle -> unit
(** [join t h] blocks until the process behind [h] has finished.  Returns
    immediately when it is already done.  If the process died with an
    exception, [join] re-raises it in the caller. *)

(** {1 Driving the simulation} *)

val run : t -> unit
(** [run t] executes events until the queue drains.  If any process died
    with an uncaught exception, the first such exception is re-raised
    after the loop stops. *)

val step : t -> bool
(** [step t] executes a single queue entry; [false] when the queue is
    empty.  A process the entry runs carries on through every {!delay}
    it wakes from in place, so one step may span several such delays. *)

(** {1 Host-side accounting} *)

val dispatched : t -> int
(** Total logical events executed so far: one per event-queue pop, plus
    one per {!delay} resumption that ran inside its timer's event.  A
    {!delay} thus counts two events, its timer and
    its resumption, whether the resumption took a queue entry of its own
    or not, and whether the process woke in place.  Purely observational — never feeds back into the
    simulation. *)

val suspends : t -> int
(** Total times a process parked: every {!delay}, blocking
    {!join} and {!suspend}.  Purely observational. *)

val pushes : t -> int
(** Total events ever pushed to the queue: the raw queue entries behind
    {!dispatched}, a {!delay} woken in place counted as the entry it
    would have queued.  Purely observational. *)

exception Process_failure of exn
(** Wrapper re-raised by {!run} for a process that died; carries the
    original exception. *)
