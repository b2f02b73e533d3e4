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
val length : 'a t -> int

val pushed : 'a t -> int
(** [pushed t] is the total number of pushes ever performed — the next
    sequence number.  Monotone; never reset by {!pop_exn}'s draining,
    and a rejected {!push} does not count. *)

val push : 'a t -> time:float -> 'a -> unit
(** [push t ~time v] inserts [v] at priority [time].  Raises
    [Invalid_argument] when [time] is before {!last_time} (or NaN):
    the queue only moves forward, like the clock it drives. *)

type cell = { mutable time : float }
(** A flat float cell: a record of floats only, so its field is stored
    unboxed.  A caller that computes a time writes it here and hands the
    cell to {!push_cell}; the float then reaches the queue without ever
    being boxed, which passing it as [~time] to {!push} would do. *)

val push_cell : 'a t -> cell -> 'a -> unit
(** [push_cell t c v] is [push t ~time:c.time v]: the same insertion,
    ordering and rejection, reading the time from [c]. *)

val pop_exn : 'a t -> 'a
(** [pop_exn t] removes the minimum-time element, FIFO among equal
    times, and returns its value alone; its timestamp is readable via
    {!last_time}.  Raises [Invalid_argument] on an empty queue. *)

val last_time : 'a t -> float
(** Time of the most recently popped element ([neg_infinity] before the
    first pop). *)

val has_due : 'a t -> bool
(** [has_due t] is [true] when some element's time is at or before
    {!last_time}: an element pushed at [last_time t] now would not be
    the next one popped.  Allocation-free. *)
