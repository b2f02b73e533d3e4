(** Critical-path profiler over the causal span graph.

    Given the finished events of a traced run ({!Span.events}), this
    module reassembles each operation's span tree via the [parent] ids
    and attributes the root's end-to-end latency to named {e segments}:

    - [Queue] — waiting for a core ([cpu.queue]) or a NIC ([net.queue]);
    - [Wire] — propagation + transmission time ([net.wire]);
    - [Serialize] — NIC serialization of bulk payloads ([net.serialize]);
    - [Compute] — charged application/compute cycles ([cpu.compute],
      [app]);
    - [Protocol] — everything else: verb bookkeeping, protocol state
      machine, controller work.

    Attribution assigns each span its {e self time} (duration minus the
    sum of its direct children's durations) so the per-segment totals
    telescope — their sum equals the root span's duration by
    construction, an invariant the test suite enforces.  Output is
    deterministic: it depends only on the recorded events, never on
    wall-clock or domain scheduling, so [--jobs 1] and [--jobs 4] runs
    render identical reports. *)

type segment = Queue | Wire | Serialize | Protocol | Compute

val all_segments : segment list
(** Fixed rendering order. *)

val segment_name : segment -> string

type path = {
  root : Span.event;
  total : float;  (** end-to-end duration of the root span, seconds *)
  segments : (segment * float) list;
      (** one entry per {!all_segments} member, in order; entries can be
          0 (segment absent from this operation).  They sum to [total]
          up to float rounding. *)
  node_count : int;  (** events in the subtree, root included *)
}

val analyze : Span.event list -> path list
(** One {!path} per root [Complete] event ([parent = 0]), in
    event-recording order.  Children are located by [parent] id within
    the same event list. *)

val report : Span.event list -> string
(** [analyze], then the 10 longest paths (ties broken by start time
    and id, so the order is deterministic) rendered as numbered text
    blocks. *)
