(** Priority queue keyed by (time, sequence).

    The simulation engine pops the earliest pending event on every step; the
    sequence number breaks ties so that events scheduled at the same instant
    fire in insertion order, which keeps simulations deterministic.

    Internally every pending event sits in one of two places: a FIFO ring
    for events pushed at the current instant, and a flat binary heap for
    every other push.  Dispatch order is identical to a plain (time, seq)
    binary heap; see docs/PERFORMANCE.md for the design. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val pushed : 'a t -> int
(** [pushed t] is the total number of pushes ever performed — the next
    sequence number.  Monotone; never reset by {!pop_exn}'s draining,
    and a rejected {!push} does not count. *)

val push : 'a t -> time:float -> 'a -> unit
(** [push t ~time v] inserts [v] at priority [time].  Raises
    [Invalid_argument] when [time] is before {!last_time} (or NaN):
    the queue only moves forward, like the clock it drives.  Inlined
    into the caller, so a [time] it computes is never boxed. *)

val pop_exn : 'a t -> 'a
(** [pop_exn t] removes the minimum-time element, FIFO among equal
    times, and returns its value alone; its timestamp is readable via
    {!last_time}.  Raises [Invalid_argument] on an empty queue. *)

val last_time : 'a t -> float
(** Time of the most recently popped element ([neg_infinity] before the
    first pop).  Inlined, and kept in a float-only record, so neither the
    pop that moves it nor the read allocates. *)

val has_due : 'a t -> bool
(** [has_due t] is [true] when some element's time is at or before
    {!last_time}: an element pushed at [last_time t] now would not be
    the next one popped.  Allocation-free. *)

val elide_next : 'a t -> time:float -> bool
(** [elide_next t ~time] is [true] when an element pushed at [time] now
    would be the very next one popped: nothing is in the ring, and
    [time] is at or after {!last_time} and strictly before every element
    in the heap.  It then accounts for that push and its pop without
    storing anything: {!pushed} grows by one and {!last_time} becomes
    [time].  Otherwise it returns [false] and changes nothing.  Inlined
    and allocation-free, so a [time] the caller computes stays unboxed.
    The engine uses it to wake a sleeper in place. *)
