module Engine = Drust_sim.Engine
module Fault = Drust_sim.Fault
module Metrics = Drust_obs.Metrics
module Span = Drust_obs.Span
module Flight = Drust_obs.Flight

type node_id = int

(* A verb targeting (or issued from) a crashed node: the transport's
   retry period expires and the work request completes in error. *)
exception Node_down of int

(* A wrapped operation that did not complete within its simulated-time
   budget (e.g. the message or its reply was dropped or blackholed). *)
exception Rpc_timeout of { from : int; target : int; timeout : float }

(* A verb carried a membership-view epoch older than the one current at
   serve time: the target refuses to act on routing state that a
   committed handoff has invalidated.  Retryable — the caller re-reads
   its view (updated by the controller's announcement) and reissues. *)
exception Stale_epoch of { from : int; target : int; seen : int; current : int }

let () =
  Printexc.register_printer (function
    | Node_down n -> Some (Printf.sprintf "Fabric.Node_down(node %d)" n)
    | Rpc_timeout { from; target; timeout } ->
        Some
          (Printf.sprintf "Fabric.Rpc_timeout(%d->%d after %gus)" from target
             (timeout *. 1e6))
    | Stale_epoch { from; target; seen; current } ->
        Some
          (Printf.sprintf "Fabric.Stale_epoch(%d->%d carried e%d, current e%d)"
             from target seen current)
    | _ -> None)

(* One node's counters: one per fabric flight kind, indexed by
   [kind - Flight.k_fab_read], then its payload bytes and remote ops. *)
type node_counters = {
  by_kind : Metrics.counter array;
  bytes_out : Metrics.counter;
  remote_ops : Metrics.counter;
}

type t = {
  engine : Engine.t;
  rng : Drust_util.Rng.t;
  model : Model.t;
  nodes : int;
  metrics : Metrics.t;
  counters : node_counters array;
  (* Egress line-rate serialization: the NIC that sources a payload can
     push one stream at line rate; concurrent bulk transfers from the
     same node queue behind each other.  Small control messages are
     exempt (they ride the latency, not the bandwidth). *)
  nics : Drust_sim.Resource.t array;
  spans : Span.t;
  mutable fault : Fault.t option;
  (* Current membership-view epoch, installed by the membership layer.
     Verbs carrying an [?epoch] are validated against it at serve time;
     absent (the default) every carried epoch passes. *)
  mutable epoch_of : (unit -> int) option;
  (* The cluster's always-on flight recorder: every verb issue, timeout,
     retry, drop, and stale-epoch NAK lands in the issuing node's ring.
     DSan reads its recent verbs from here for violation provenance. *)
  flight : Flight.t;
}

(* Transfers below this size do not contend for the DMA engine. *)
let bulk_threshold = 4096

(* The counter each fabric flight kind bumps, from [Flight.k_fab_read]
   to [Flight.k_fab_stale_epoch]: a SEND counts as an RPC. *)
let kind_counters =
  [| "fabric.reads"; "fabric.writes"; "fabric.atomics"; "fabric.rpcs";
     "fabric.rpcs"; "fabric.timeouts"; "fabric.retries"; "fabric.drops";
     "fabric.stale_epochs" |]

let register_node metrics node =
  let labels = [ ("node", string_of_int node) ] in
  let c ?(unit_ = "ops") name = Metrics.counter metrics ~labels ~unit_ name in
  {
    by_kind = Array.map (fun name -> c name) kind_counters;
    bytes_out = c ~unit_:"bytes" "fabric.bytes_out";
    remote_ops = c "fabric.remote_ops";
  }

let create ~metrics ~spans ~flight ~engine ~rng ~model ~nodes =
  if nodes <= 0 then invalid_arg "Fabric.create: need at least one node";
  {
    engine;
    rng;
    model;
    nodes;
    metrics;
    counters = Array.init nodes (register_node metrics);
    nics =
      Array.init nodes (fun _ -> Drust_sim.Resource.create engine ~capacity:1);
    spans;
    fault = None;
    epoch_of = None;
    flight;
  }

(* One fabric event of flight kind [kind] issued by [from]: bump its
   counter and append it to the node's flight ring (array stores only —
   see Flight.record). *)
let[@inline] event t ~from ~kind ~a ~b ~c =
  Metrics.incr t.counters.(from).by_kind.(kind - Flight.k_fab_read);
  Flight.record t.flight ~node:from ~time:(Engine.now t.engine) ~kind ~a ~b ~c
    ~d:0

let ep = function Some e -> e | None -> -1

let set_epoch_source t f = t.epoch_of <- f
let metrics t = t.metrics
let set_fault_plan t plan = t.fault <- Some plan

(* A fabric event's span arguments; built only when tracing is live. *)
let verb_args ~target ~bytes =
  [ ("target", string_of_int target); ("bytes", string_of_int bytes) ]

(* Instant mark on the issuing node's timeline (drops, timeouts, async
   sends); argument lists are only built when tracing is live. *)
let mark ?parent t verb ~from ~target ~bytes =
  if Span.is_enabled t.spans then
    Span.instant t.spans ~track:from ?parent ~category:"fabric"
      ~args:(verb_args ~target ~bytes)
      verb

(* The span covering one blocking verb's latency on the issuing node's
   timeline, or [Span.null] when untraced: the verb runs the same body
   either way, and its sub-phases and marks hang off this one value. *)
let verb_span ?parent t verb ~from ~target ~bytes =
  if Span.is_enabled t.spans then
    Span.start t.spans ~track:from ~category:"fabric" ?parent
      ~args:(verb_args ~target ~bytes)
      verb
  else Span.null

(* Whether verb span [vs] is being recorded. *)
let traced vs =
  (vs != Span.null)
  [@dlint.allow
    "determinism: identity test against the shared null-span sentinel, a \
     record with mutable fields"]

(* The flow edge a traced cross-node verb draws from its span to the
   target-side mark; 0 (no edge) when untraced or node-local. *)
let flow_out t vs ~from ~target =
  if (not (traced vs)) || from = target then 0
  else begin
    let fid = Span.fresh_flow_id t.spans in
    Span.add_flow_out vs fid;
    fid
  end

(* Target-side consumption mark: closes the flow arrow on the serving
   node's timeline (the RECV of an RPC, the NIC serving a READ). *)
let serve_mark t vs ~flow ~target name =
  if flow <> 0 then
    Span.instant t.spans ~track:target ~parent:vs ~flow_in:[ flow ]
      ~category:"fabric" name

(* One sub-phase of verb span [vs] ([net.wire], [net.queue],
   [net.serialize]); [Span.null] under an untraced verb. *)
let phase t vs ~from ~category name =
  if traced vs then Span.start t.spans ~track:from ~parent:vs ~category name
  else Span.null

let check_node t n label =
  if n < 0 || n >= t.nodes then
    invalid_arg (Printf.sprintf "Fabric.%s: node %d out of range" label n)

(* ------------------------------------------------------------------ *)
(* Fault-plan consultation.  With no plan installed every check is a
   no-op, so fault-free runs keep their exact event and RNG sequences. *)

(* Park the calling process forever: the registration function discards
   the resumer, so the continuation is never scheduled. *)
let blackhole () : unit = Engine.suspend (fun _resume -> ())

(* Synchronous verbs: a dead source kills the issuing thread's op
   outright; a dead target costs the transport's retry period and then
   completes in error; a severed or lossy link swallows the message, so
   the op never completes (callers bound this with [rpc_with_timeout]). *)
let sync_guard t ~from ~target =
  match t.fault with
  | None -> ()
  | Some p ->
      if Fault.is_down p from then raise (Node_down from);
      if from <> target then begin
        if Fault.is_down p target then begin
          Engine.delay t.engine Fault.nak_delay;
          raise (Node_down target)
        end;
        if Fault.severed p ~from ~target || Fault.drops p ~from ~target then begin
          event t ~from ~kind:Flight.k_fab_drop ~a:target ~b:0 ~c:0;
          mark t "DROP" ~from ~target ~bytes:0;
          blackhole ()
        end
      end

(* Fire-and-forget verbs never raise: a message to a dead or unreachable
   node is silently lost, exactly like a one-sided WRITE whose completion
   nobody polls. *)
let async_delivers t ~from ~target =
  match t.fault with
  | None -> true
  | Some p ->
      if
        Fault.is_down p from || Fault.is_down p target
        || (from <> target
           && (Fault.severed p ~from ~target || Fault.drops p ~from ~target))
      then begin
        event t ~from ~kind:Flight.k_fab_drop ~a:target ~b:0 ~c:0;
        mark t "DROP(async)" ~from ~target ~bytes:0;
        false
      end
      else true

(* Serve-time view validation: a verb that carried an epoch is rejected
   if the membership view advanced while it was in flight (or the issuer
   was already behind when it posted).  Runs after the request leg's
   latency — the request reached the target and completed in error, like
   a work request NAKed by a server that re-checked its delegation map. *)
let check_epoch t ~from ~target epoch =
  match (epoch, t.epoch_of) with
  | Some seen, Some current_of ->
      let current = current_of () in
      if seen < current then begin
        event t ~from ~kind:Flight.k_fab_stale_epoch ~a:target ~b:seen
          ~c:current;
        mark t "STALE_EPOCH" ~from ~target ~bytes:0;
        raise (Stale_epoch { from; target; seen; current })
      end
  | _ -> ()

(* The latency classes of a verb leg: its base latency, or, for
   [Serialize], none — the leg is a bulk payload's wire time on the NIC. *)
type leg = Oneside | Twoside | Atomic | Serialize

(* The modelled latency of one leg, in one place so that no intermediate
   float is boxed: the leg's base (the loopback cost when from = target)
   plus the payload's wire time, under multiplicative gaussian jitter
   clamped to [0.5, 2] so a pathological sample is never negative or more
   than double, plus any fault-plan slowdown of the link.  A [Serialize]
   leg is the jittered wire time alone.  It is inlined, and so are the
   jitter draw and [Engine.delay], so no float on the way from the model
   to the engine's clock is boxed. *)
let[@inline] leg_latency t leg ~from ~target ~bytes =
  let m = t.model in
  let wire = Float.of_int bytes /. m.Model.bandwidth in
  let raw =
    match leg with
    | Serialize -> wire
    | (Oneside | Twoside | Atomic) when from = target ->
        m.Model.local_base +. wire
    | Oneside -> m.Model.oneside_base +. wire
    | Twoside -> m.Model.twoside_base +. wire
    | Atomic -> m.Model.atomic_base +. wire
  in
  let jittered =
    if m.Model.jitter <= 0.0 then raw
    else
      let f = Drust_util.Rng.gaussian t.rng ~mu:1.0 ~sigma:m.Model.jitter in
      raw *. (if f < 0.5 then 0.5 else if f > 2.0 then 2.0 else f)
  in
  match (leg, t.fault) with
  | Serialize, _ | _, None -> jittered
  | _, Some p ->
      jittered
      +. if from <> target then Fault.extra_latency p ~from ~target else 0.0

(* Block for one leg's latency; a bulk payload additionally holds the
   data source's NIC for its wire time (drawn once the NIC is ours), so
   concurrent bulk egress from one node serializes at line rate.  Each
   phase is a sub-span of [vs]: propagation/wire -> [net.wire], waiting
   for the NIC -> [net.queue], holding it -> [net.serialize].  A delay
   never raises (the engine never discontinues a process), so the NIC
   needs no release-on-exception. *)
let delay_with_nic t vs leg ~data_source ~from ~target ~bytes =
  if bytes >= bulk_threshold && from <> target then begin
    let wire = phase t vs ~from ~category:"net.wire" "propagate" in
    Engine.delay t.engine (leg_latency t leg ~from ~target ~bytes:0);
    Span.finish t.spans wire;
    let nic = t.nics.(data_source) in
    let wait = phase t vs ~from ~category:"net.queue" "nic_wait" in
    Drust_sim.Resource.acquire nic;
    Span.finish t.spans wait;
    let hold = phase t vs ~from ~category:"net.serialize" "serialize" in
    Engine.delay t.engine (leg_latency t Serialize ~from ~target ~bytes);
    Span.finish t.spans hold;
    Drust_sim.Resource.release nic
  end
  else begin
    let wire = phase t vs ~from ~category:"net.wire" "wire" in
    Engine.delay t.engine (leg_latency t leg ~from ~target ~bytes);
    Span.finish t.spans wire
  end

(* Every verb's prologue: check both ends, then count the issue, its
   bytes and (off-node) a remote op, and record it on the issuing node's
   ring with [c] as its third payload field. *)
let issue t label ~kind ~from ~target ~bytes ~c =
  check_node t from label;
  check_node t target label;
  event t ~from ~kind ~a:target ~b:bytes ~c;
  let nc = t.counters.(from) in
  Metrics.add nc.bytes_out bytes;
  if from <> target then Metrics.incr nc.remote_ops

(* Each blocking verb below opens its span (or holds [Span.null]) once,
   runs its one body, and finishes the span on return and on exception:
   the stale-epoch check, an RPC handler and an atomic's [f] can raise. *)

(* READ and WRITE: READ pulls data out of the target and WRITE pushes it
   from the sender, so that node's NIC is the egress. *)
let one_sided ?parent ?epoch t ~write ~from ~target ~bytes =
  issue t
    (if write then "rdma_write" else "rdma_read")
    ~kind:(if write then Flight.k_fab_write else Flight.k_fab_read)
    ~from ~target ~bytes ~c:(ep epoch);
  sync_guard t ~from ~target;
  let vs =
    verb_span ?parent t (if write then "WRITE" else "READ") ~from ~target ~bytes
  in
  let flow = flow_out t vs ~from ~target in
  match
    delay_with_nic t vs Oneside
      ~data_source:(if write then from else target)
      ~from ~target ~bytes;
    check_epoch t ~from ~target epoch;
    serve_mark t vs ~flow ~target
      (if write then "SERVE(WRITE)" else "SERVE(READ)")
  with
  | () -> Span.finish t.spans vs
  | exception e ->
      Span.finish t.spans vs;
      raise e

let rdma_read ?parent ?epoch t ~from ~target ~bytes =
  one_sided ?parent ?epoch t ~write:false ~from ~target ~bytes

let rdma_write ?parent ?epoch t ~from ~target ~bytes =
  one_sided ?parent ?epoch t ~write:true ~from ~target ~bytes

(* A fire-and-forget verb's delivery callback: [k] itself when untraced;
   traced, the post lands as an instant on the issuing node (with a flow
   edge out when cross-node) and [k] is wrapped to mark its RECV on the
   target at delivery — the same schedule, so the event order is
   unchanged. *)
let async_delivery ?parent t post recv ~from ~target ~bytes k =
  if not (Span.is_enabled t.spans) then k
  else begin
    let flows = if from = target then [] else [ Span.fresh_flow_id t.spans ] in
    Span.instant t.spans ~track:from ?parent ~flow_out:flows ~category:"fabric"
      ~args:(verb_args ~target ~bytes)
      post;
    fun () ->
      Span.instant t.spans ~track:target ~flow_in:flows ~category:"fabric" recv;
      k ()
  end

let rdma_write_async ?parent t ~from ~target ~bytes k =
  issue t "rdma_write_async" ~kind:Flight.k_fab_write ~from ~target ~bytes
    ~c:(-1);
  if async_delivers t ~from ~target then begin
    let dt = leg_latency t Oneside ~from ~target ~bytes in
    Engine.schedule_after t.engine dt
      (async_delivery ?parent t "WRITE(async)" "RECV(WRITE)" ~from ~target
         ~bytes k)
  end

let rdma_atomic ?parent t ~from ~target f =
  issue t "rdma_atomic" ~kind:Flight.k_fab_atomic ~from ~target ~bytes:8
    ~c:(-1);
  sync_guard t ~from ~target;
  let vs = verb_span ?parent t "ATOMIC" ~from ~target ~bytes:8 in
  let flow = flow_out t vs ~from ~target in
  match
    (* The 8-byte operand rides the latency: no wire time, no NIC. *)
    delay_with_nic t vs Atomic ~data_source:target ~from ~target ~bytes:0;
    serve_mark t vs ~flow ~target "SERVE(ATOMIC)";
    f ()
  with
  | v ->
      Span.finish t.spans vs;
      v
  | exception e ->
      Span.finish t.spans vs;
      raise e

let rpc ?parent ?epoch t ~from ~target ~req_bytes ~resp_bytes handler =
  issue t "rpc" ~kind:Flight.k_fab_rpc ~from ~target
    ~bytes:(req_bytes + resp_bytes) ~c:(ep epoch);
  sync_guard t ~from ~target;
  let vs =
    verb_span ?parent t "RPC" ~from ~target ~bytes:(req_bytes + resp_bytes)
  in
  let flow = flow_out t vs ~from ~target in
  match
    delay_with_nic t vs Twoside ~data_source:from ~from ~target
      ~bytes:req_bytes;
    check_epoch t ~from ~target epoch;
    serve_mark t vs ~flow ~target "RECV(RPC)";
    let result = handler () in
    delay_with_nic t vs Twoside ~data_source:target ~from ~target
      ~bytes:resp_bytes;
    result
  with
  | v ->
      Span.finish t.spans vs;
      v
  | exception e ->
      Span.finish t.spans vs;
      raise e

(* ------------------------------------------------------------------ *)
(* Bounded failure semantics: race an operation against a virtual-time
   timer, and retry with exponential backoff.  Without these, a dropped
   or blackholed message parks its caller forever.                     *)

type 'a raced = Settled of 'a | Crashed of exn | Expired

(* Run [f] in a helper process and suspend the caller until the first of
   {f completes, f raises, the timer fires} — later outcomes are
   discarded.  An abandoned [f] keeps running in virtual time (its heap
   side effects still land, like a request the server processed after
   the client gave up), or parks forever if its message was dropped. *)
let race_against_timer t ~timeout f =
  Engine.suspend (fun resume ->
      let settled = ref false in
      let settle outcome =
        if not !settled then begin
          settled := true;
          resume outcome
        end
      in
      ignore
        (Engine.spawn t.engine (fun () ->
             match f () with
             | v -> settle (Settled v)
             | exception e -> settle (Crashed e)));
      Engine.schedule_after t.engine timeout (fun () -> settle Expired))

let rpc_with_timeout ?parent ?epoch t ~from ~target ~req_bytes ~resp_bytes
    ~timeout handler =
  check_node t from "rpc_with_timeout";
  check_node t target "rpc_with_timeout";
  if timeout <= 0.0 then invalid_arg "Fabric.rpc_with_timeout: timeout <= 0";
  match
    race_against_timer t ~timeout (fun () ->
        rpc ?parent ?epoch t ~from ~target ~req_bytes ~resp_bytes handler)
  with
  | Settled v -> v
  | Crashed e -> raise e
  | Expired ->
      event t ~from ~kind:Flight.k_fab_timeout ~a:target ~b:0 ~c:0;
      mark ?parent t "TIMEOUT" ~from ~target ~bytes:0;
      raise (Rpc_timeout { from; target; timeout })

(* The backoff's cap, and the amplitude of its seeded noise. *)
let max_delay = 5e-3
let jitter = 0.25

(* Retry [op] on Node_down / Rpc_timeout / Stale_epoch with exponential
   backoff, giving up (re-raising the last error) when the attempt count
   or the simulated-time budget runs out.  [op] re-resolves its own
   target (and re-reads its membership view) each attempt, which is what
   lets a retry land on a freshly promoted backup or carry the epoch a
   handoff announcement just installed. *)
let retry_with_backoff ?parent t ~from ?(attempts = 8) ?(base_delay = 50e-6)
    ?(budget = Float.infinity) op =
  check_node t from "retry_with_backoff";
  if attempts < 1 then invalid_arg "Fabric.retry_with_backoff: attempts < 1";
  let deadline = Engine.now t.engine +. budget in
  let rec go n delay =
    match op () with
    | v -> v
    | exception ((Node_down _ | Rpc_timeout _ | Stale_epoch _) as e) ->
        if n + 1 >= attempts || Engine.now t.engine +. delay > deadline then
          raise e
        else begin
          event t ~from ~kind:Flight.k_fab_retry ~a:(n + 1) ~b:0 ~c:0;
          mark ?parent t "RETRY" ~from ~target:from ~bytes:0;
          (* +-jitter seeded multiplicative noise decorrelates retry
             storms. *)
          let d =
            delay *. (1.0 -. jitter +. Drust_util.Rng.float t.rng (2.0 *. jitter))
          in
          Engine.delay t.engine d;
          go (n + 1) (Float.min max_delay (delay *. 2.0))
        end
  in
  go 0 base_delay

let send_async ?parent t ~from ~target ~bytes handler =
  issue t "send_async" ~kind:Flight.k_fab_send ~from ~target ~bytes ~c:(-1);
  if async_delivers t ~from ~target then begin
    let dt = leg_latency t Twoside ~from ~target ~bytes in
    ignore
      (Engine.spawn ~at:(Engine.now t.engine +. dt) t.engine
         (async_delivery ?parent t "SEND(async)" "RECV(SEND)" ~from ~target
            ~bytes handler))
  end
