(** The simulated RDMA fabric.

    Exposes the verbs DRust's communication layer uses (§5 of the paper):
    one-sided READ/WRITE for the data plane, two-sided SEND/RECV-style RPC
    for the control plane, and remote atomics for shared state.  All verbs
    block the calling simulated process for the modelled latency; one-sided
    verbs never involve the target's CPU, whereas an {!rpc} executes its
    handler "at" the target (the handler may acquire target-side resources,
    which is how home-node bottlenecks emerge in the baselines).

    Per-node traffic counters live in a {!Drust_obs.Metrics} registry
    (names [fabric.*], labelled by source node): each fabric event bumps
    the counter of its flight kind (a SEND counts in [fabric.rpcs]) in
    the same call that records it on the issuing node's flight ring, and
    every verb also counts its bytes and, off-node, a remote op.  They
    feed the evaluation's coherence-cost breakdowns; while the
    {!Drust_obs.Span} tracer is enabled, every verb also lands on the
    issuing node's timeline (category ["fabric"]). *)

type node_id = int

type t

exception Node_down of int
(** A synchronous verb was issued from, or targeted, a crashed node: the
    transport's retry period expired and the work request completed in
    error.  Carries the dead node's id. *)

exception Rpc_timeout of { from : node_id; target : node_id; timeout : float }
(** An operation wrapped in {!rpc_with_timeout} did not complete within
    its simulated-time budget. *)

exception
  Stale_epoch of { from : node_id; target : node_id; seen : int; current : int }
(** A verb carried a membership-view epoch ([seen]) older than the view
    current at serve time ([current]): the target refuses to act on
    routing state a committed handoff has invalidated.  Retryable —
    {!retry_with_backoff} treats it like {!Node_down}, and the caller's
    next attempt re-reads its (by then updated) view. *)

val create :
  metrics:Drust_obs.Metrics.t ->
  spans:Drust_obs.Span.t ->
  flight:Drust_obs.Flight.t ->
  engine:Drust_sim.Engine.t ->
  rng:Drust_util.Rng.t ->
  model:Model.t ->
  nodes:int ->
  t
(** [metrics] is the registry the fabric counters land in, next to
    everyone else's.  [spans] is the span tracer: while it is enabled,
    every blocking verb records a span covering its latency (with
    [net.wire] / [net.queue] / [net.serialize] sub-spans),
    drops/timeouts/retries/async sends record instants, and cross-node
    verbs draw a flow edge to a target-side SERVE/RECV instant.  [flight]
    is the cluster's always-on black box: every verb issue, timeout,
    retry, drop, and stale-epoch NAK is recorded into the issuing node's
    ring (docs/FORENSICS.md). *)

val set_fault_plan : t -> Drust_sim.Fault.t -> unit
(** Install a fault plan: from now on every verb consults it.  Verbs
    from or to a crashed node raise {!Node_down}; messages crossing an
    active partition, or lost to a lossy link, {e never complete} (the
    calling process parks forever — bound such calls with
    {!rpc_with_timeout}).  Fire-and-forget verbs never raise; their
    messages are silently dropped.  Without a plan (the default) every
    check is a no-op and event/RNG sequences are unchanged. *)

val set_epoch_source : t -> (unit -> int) option -> unit
(** Install the membership layer's current-epoch reader.  From then on,
    any verb passed an [?epoch] is validated against it at serve time
    (after the request leg's latency): a carried epoch older than the
    current one raises {!Stale_epoch} and counts against the issuer's
    [fabric.stale_epochs].  Without a source (the default), or on verbs
    that carry no epoch, validation is skipped.  The reader must be pure
    observation — no engine or RNG access. *)

(** {1 Verbs — call only from inside a simulated process} *)

val rdma_read :
  ?parent:Drust_obs.Span.span ->
  ?epoch:int ->
  t -> from:node_id -> target:node_id -> bytes:int -> unit
(** One-sided READ: blocks the caller for the verb latency; the target CPU
    is not involved.  [parent] (here and on every verb below) links the
    verb's span under an enclosing operation span when tracing is
    enabled; it has no effect otherwise.  [epoch] (here and on
    {!rdma_write} / {!rpc} / {!rpc_with_timeout}) stamps the verb with
    the issuer's membership-view epoch for serve-time validation — see
    {!set_epoch_source}. *)

val rdma_write :
  ?parent:Drust_obs.Span.span ->
  ?epoch:int ->
  t -> from:node_id -> target:node_id -> bytes:int -> unit
(** One-sided WRITE, same cost model as {!rdma_read}. *)

val rdma_write_async :
  ?parent:Drust_obs.Span.span ->
  t -> from:node_id -> target:node_id -> bytes:int
  -> (unit -> unit) -> unit
(** Posts a WRITE and returns immediately; the completion callback runs
    when the payload lands at the target.  Used for asynchronous
    deallocation requests and replication write-backs. *)

val rdma_atomic :
  ?parent:Drust_obs.Span.span ->
  t -> from:node_id -> target:node_id -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c
(** Remote atomic (FAA / CAS): [rdma_atomic t ~from ~target f x y] blocks
    the caller for the atomic verb latency and then runs [f x y] — the
    NIC-serialized atomic update — at the target.  [f] must be
    instantaneous (no blocking primitives).  Taking [f]'s operands apart
    from [f] lets a caller pass a top-level function, so that an atomic
    builds no closure. *)

val rpc :
  ?parent:Drust_obs.Span.span ->
  ?epoch:int ->
  t ->
  from:node_id ->
  target:node_id ->
  req_bytes:int ->
  resp_bytes:int ->
  (unit -> 'a) ->
  'a
(** Two-sided round trip: the request travels to [target], the handler
    runs there (it may block on target-side resources), and the response
    travels back.  Returns the handler's result to the caller. *)

(** {2 An RPC in halves}

    {!rpc} is these three calls around its handler.  A hot caller runs
    its handler inline between them and so builds no closure:
    {[
      let vs = Fabric.rpc_request fabric ~from ~target ~req_bytes ~resp_bytes in
      match handler_body () with
      | v -> Fabric.rpc_reply fabric vs ~from ~target ~resp_bytes; v
      | exception e -> Fabric.rpc_abort fabric vs; raise e
    ]}
    The halves cost what {!rpc} costs, event for event and draw for
    draw. *)

val rpc_request :
  ?parent:Drust_obs.Span.span ->
  ?epoch:int ->
  t ->
  from:node_id ->
  target:node_id ->
  req_bytes:int ->
  resp_bytes:int ->
  Drust_obs.Span.span
(** The request half: count and record the verb (its bytes are
    [req_bytes + resp_bytes]), apply the fault plan, block for the
    request leg, validate [epoch] and mark the receipt at [target].
    Returns the verb's open span, {!Drust_obs.Span.null} when untraced,
    for the other half.  Raises like {!rpc} before its handler would
    run ({!Node_down}, {!Stale_epoch}), with the span already
    finished. *)

val rpc_reply :
  t -> Drust_obs.Span.span -> from:node_id -> target:node_id ->
  resp_bytes:int -> unit
(** The reply half: block for the response leg from [target] back to
    [from], then finish the verb span.  [from], [target] and
    [resp_bytes] must be those given to {!rpc_request}. *)

val rpc_abort : t -> Drust_obs.Span.span -> unit
(** End an RPC whose handler raised: finish the verb span and send no
    reply.  The caller then re-raises. *)

val send_async :
  ?parent:Drust_obs.Span.span ->
  t -> from:node_id -> target:node_id -> bytes:int -> (unit -> unit) -> unit
(** One-way two-sided message; the handler runs at the target when the
    message arrives.  The caller is not blocked.  The handler runs inside
    the delivery event, not as a process, so it must not block (no
    delay, verb or lock), and an exception it raises escapes
    [Engine.run] directly. *)

(** {1 Bounded failure semantics} *)

val rpc_with_timeout :
  ?parent:Drust_obs.Span.span ->
  ?epoch:int ->
  t ->
  from:node_id ->
  target:node_id ->
  req_bytes:int ->
  resp_bytes:int ->
  timeout:float ->
  (unit -> 'a) ->
  'a
(** Like {!rpc}, but raises {!Rpc_timeout} (and counts a timeout against
    [from]) if the round trip has not completed after [timeout] simulated
    seconds — e.g. because the request was dropped or the target is
    partitioned away.  An abandoned request keeps travelling: the handler
    may still execute at the target even though the caller gave up. *)

val retry_with_backoff :
  ?parent:Drust_obs.Span.span ->
  t ->
  from:node_id ->
  ?attempts:int ->
  ?base_delay:float ->
  ?budget:float ->
  (unit -> 'a) ->
  'a
(** [retry_with_backoff t ~from op] runs [op], retrying on {!Node_down},
    {!Rpc_timeout} and {!Stale_epoch} with exponential backoff (starting
    at [base_delay] (default 50 µs), doubling up to 5 ms) until it
    succeeds, [attempts] (default 8) run out, or the next backoff would
    exceed the simulated-time [budget] — then re-raises the last error.
    Each backoff is multiplied by seeded noise in [1 ± 0.25] drawn from
    the cluster's RNG, so retries from different nodes desynchronize after a
    partition heals instead of stampeding in lockstep.  [op] should
    re-resolve its target (and re-read its membership view) each attempt
    so a retry can land on a freshly promoted backup or carry a freshly
    announced epoch. *)
