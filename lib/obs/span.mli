(** Span tracing layered on virtual time.

    A bounded ring of trace events recorded against an injected clock
    (the simulation engine's virtual clock in practice — this library
    stays below [Drust_sim] in the dependency order, so the clock is the
    {!Drust_util.Vclock.t} the engine moves, read in place).  Two event
    shapes:

    - {e complete spans}: [start] .. [finish] pairs with a category, a
      track (one per node by convention), free-form attributes, nesting
      depth, and a duration; per-category duration statistics accumulate
      as spans finish;
    - {e instants}: zero-duration marks ("DROP", "FAILOVER", ...).

    Events are {e causally linked}: every recorded event carries a
    tracer-unique [id], an optional [parent] id (0 = root), and two
    lists of {e flow edge} ids.  A flow edge ties a producer event on
    one track to a consumer event on another (a fabric message crossing
    nodes); {!fresh_flow_id} mints edge ids, {!add_flow_out} attaches
    them to in-flight spans, {!instant}'s [flow_in] consumes them, and
    {!Critical_path} / {!Export.write_chrome_trace} consume them to rebuild
    the causal graph of an operation.

    This subsumes the old flat [Trace] ring: events carry structure
    (category / track / args / duration) instead of one pre-formatted
    string, which is what lets {!Export.write_chrome_trace} lay a run out on a
    per-node timeline.

    Recording against a disabled tracer is a no-op: nothing is
    allocated, [count] stays 0, and [start] hands back {!null}, which
    [finish] ignores.  Tracers default to disabled — tracing
    is opt-in (--trace / --profile / --trace-out). *)

type t

type kind = Complete | Instant

type event = {
  id : int;  (** tracer-unique, > 0; deterministic per cluster *)
  parent : int;  (** id of the enclosing span, 0 when root *)
  name : string;
  category : string;  (** "fabric", "protocol", "controller", "app", ... *)
  track : int;  (** timeline lane; by convention the node id *)
  ts : float;  (** virtual start time, seconds *)
  dur : float;  (** 0 for instants *)
  depth : int;  (** nesting depth on this track at [start] time, >= 1 *)
  args : (string * string) list;
  kind : kind;
  flow_out : int list;  (** flow-edge ids this event produces *)
  flow_in : int list;  (** flow-edge ids this event consumes *)
}

type span
(** In-flight span handle returned by {!start}. *)

val null : span
(** The span that records nothing: what {!start} returns when the
    tracer is disabled, and what untraced code holds in place of an open
    span, so that it never calls {!start} (whose optional arguments box
    on every call).  {!finish} ignores it. *)

val create : ?capacity:int -> clock:Drust_util.Vclock.t -> unit -> t
(** Default capacity: 65536 events; older events are overwritten.
    The tracer starts {e disabled}; the ring is allocated by the first
    {!enable}. *)

val enable : t -> unit
val is_enabled : t -> bool

val start :
  t -> ?track:int -> ?args:(string * string) list -> ?parent:span ->
  category:string -> string -> span
(** Open a span at the clock's [now].  The event is recorded when the span
    {!finish}es.  [parent] links the new span under an enclosing one
    (the null span and spans from a disabled tracer parent as roots).
    When disabled, returns {!null} without recording or allocating. *)

val finish : t -> span -> unit
(** Close the span: records a [Complete] event with
    [dur = now - ts] and folds the duration into the per-category
    stats.  Finishing a span twice, or a null span, is a no-op. *)

val instant :
  t -> ?track:int -> ?args:(string * string) list -> ?parent:span ->
  ?flow_out:int list -> ?flow_in:int list -> category:string -> string ->
  unit

val fresh_flow_id : t -> int
(** Mint a new flow-edge id (> 0).  Deterministic: ids are handed out
    from a per-tracer counter in call order. *)

val add_flow_out : span -> int -> unit
(** Attach a produced flow edge to an in-flight span (no-op after
    {!finish} or on the null span). *)

val events : t -> event list
(** In recording order (completes are recorded at finish time); at most
    [capacity] entries, oldest first. *)

val count : t -> int
(** Total events recorded since creation (including overwritten ones). *)

val depth : t -> track:int -> int
(** Currently open spans on a track (0 when none). *)

type dur_stats = {
  d_count : int;
  d_total : float;
  d_min : float;
  d_max : float;
}

val duration_stats : t -> (string * dur_stats) list
(** Per-category accumulated span durations (completes only), sorted by
    category.  Survives ring overwrites. *)

val dump : ?limit:int -> Format.formatter -> t -> unit
(** Human-readable tail of the event ring. *)
