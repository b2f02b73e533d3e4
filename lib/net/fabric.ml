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

(* Per-node registry handles. *)
type verbs = {
  c_reads : Metrics.counter;
  c_writes : Metrics.counter;
  c_atomics : Metrics.counter;
  c_rpcs : Metrics.counter;
  c_bytes_out : Metrics.counter;
  c_remote_ops : Metrics.counter;
  c_timeouts : Metrics.counter; (* wrapped ops that expired their budget *)
  c_retries : Metrics.counter; (* backoff re-attempts issued from this node *)
  c_drops : Metrics.counter; (* messages lost to partitions or lossy links *)
  c_stale_epochs : Metrics.counter; (* verbs NAKed for an old view epoch *)
}

type t = {
  engine : Engine.t;
  rng : Drust_util.Rng.t;
  model : Model.t;
  (* [model.jitter], stored boxed in this mixed record so that every
     jitter draw passes it to [Rng.gaussian] without boxing a copy. *)
  sigma : float;
  nodes : int;
  metrics : Metrics.t;
  counters : verbs array;
  (* Egress line-rate serialization: the NIC that sources a payload can
     push one stream at line rate; concurrent bulk transfers from the
     same node queue behind each other.  Small control messages are
     exempt (they ride the latency, not the bandwidth). *)
  nics : Drust_sim.Resource.t array;
  spans : Span.t option;
  mutable fault : Fault.t option;
  (* Current membership-view epoch, installed by the membership layer.
     Verbs carrying an [?epoch] are validated against it at serve time;
     absent (the default) every carried epoch passes. *)
  mutable epoch_of : (unit -> int) option;
  (* The cluster's always-on flight recorder: every verb issue, timeout,
     retry, drop, and stale-epoch NAK lands in the issuing node's ring.
     DSan reads its recent verbs from here for violation provenance. *)
  flight : Flight.t option;
}

(* Transfers below this size do not contend for the DMA engine. *)
let bulk_threshold = 4096

let register_verbs metrics node =
  let labels = [ ("node", string_of_int node) ] in
  let c ?(unit_ = "ops") name = Metrics.counter metrics ~labels ~unit_ name in
  {
    c_reads = c "fabric.reads";
    c_writes = c "fabric.writes";
    c_atomics = c "fabric.atomics";
    c_rpcs = c "fabric.rpcs";
    c_bytes_out = c ~unit_:"bytes" "fabric.bytes_out";
    c_remote_ops = c "fabric.remote_ops";
    c_timeouts = c "fabric.timeouts";
    c_retries = c "fabric.retries";
    c_drops = c "fabric.drops";
    c_stale_epochs = c "fabric.stale_epochs";
  }

let create ?metrics ?spans ?flight ~engine ~rng ~model ~nodes () =
  if nodes <= 0 then invalid_arg "Fabric.create: need at least one node";
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  {
    engine;
    rng;
    model;
    sigma = model.Model.jitter;
    nodes;
    metrics;
    counters = Array.init nodes (register_verbs metrics);
    nics =
      Array.init nodes (fun _ -> Drust_sim.Resource.create engine ~capacity:1);
    spans;
    fault = None;
    epoch_of = None;
    flight;
  }

(* Flight-recorder append for one fabric event on the issuing node's
   ring (array stores only — see Flight.record). *)
let[@inline] fr t ~from ~kind ~a ~b ~c =
  match t.flight with
  | None -> ()
  | Some fl ->
      Flight.record fl ~node:from ~time:(Engine.now t.engine) ~kind ~a ~b ~c
        ~d:0

let ep = function Some e -> e | None -> -1

let set_epoch_source t f = t.epoch_of <- f
let metrics t = t.metrics
let set_fault_plan t plan = t.fault <- Some plan

(* Instant mark on the issuing node's timeline (drops, timeouts, async
   sends); argument lists are only built when tracing is live. *)
let mark ?parent t verb ~from ~target ~bytes =
  match t.spans with
  | Some sp when Span.is_enabled sp ->
      Span.instant sp ~track:from ?parent ~category:"fabric"
        ~args:
          [ ("target", string_of_int target); ("bytes", string_of_int bytes) ]
        verb
  | _ -> ()

(* Live tracing context threaded through one blocking verb: the tracer,
   the verb's open span, and the flow-edge id minted for cross-node
   verbs (0 when from = target). *)
type verb_trace = { vt_sp : Span.t; vt_span : Span.span; vt_flow : int }

(* Target-side consumption mark: closes the flow arrow on the serving
   node's timeline (the RECV of an RPC, the NIC serving a READ). *)
let serve_mark vt ~target name =
  match vt with
  | None -> ()
  | Some { vt_sp; vt_span; vt_flow } ->
      let flow_in = if vt_flow = 0 then [] else [ vt_flow ] in
      Span.instant vt_sp ~track:target ~parent:vt_span ~flow_in
        ~category:"fabric" name

(* The tracer, when spans are being recorded: [t.spans] itself, so the
   untraced check allocates nothing. *)
let tracing t =
  match t.spans with
  | Some sp as live when Span.is_enabled sp -> live
  | Some _ | None -> None

(* Complete span covering a blocking verb's latency.  [f] receives the
   live trace context so it can hang wire/queue sub-spans and
   target-side marks off the verb span.  Untraced verbs call their body
   directly with [None] and build no closure. *)
let with_verb_span sp verb ~from ~target ~bytes ?parent f =
  let vs =
    Span.start sp ~track:from ~category:"fabric" ?parent
      ~args:[ ("target", string_of_int target); ("bytes", string_of_int bytes) ]
      verb
  in
  let fid =
    if from = target then 0
    else begin
      let fid = Span.fresh_flow_id sp in
      Span.add_flow_out vs fid;
      fid
    end
  in
  match f (Some { vt_sp = sp; vt_span = vs; vt_flow = fid }) with
  | v ->
      Span.finish sp vs;
      v
  | exception e ->
      Span.finish sp vs;
      raise e

let engine t = t.engine
let node_count t = t.nodes

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
          Engine.delay t.engine (Fault.nak_delay p);
          raise (Node_down target)
        end;
        if Fault.severed p ~from ~target || Fault.drops p ~from ~target then begin
          Metrics.incr t.counters.(from).c_drops;
          mark t "DROP" ~from ~target ~bytes:0;
          fr t ~from ~kind:Flight.k_fab_drop ~a:target ~b:0 ~c:0;
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
        Metrics.incr t.counters.(from).c_drops;
        mark t "DROP(async)" ~from ~target ~bytes:0;
        fr t ~from ~kind:Flight.k_fab_drop ~a:target ~b:0 ~c:0;
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
        Metrics.incr t.counters.(from).c_stale_epochs;
        mark t "STALE_EPOCH" ~from ~target ~bytes:0;
        fr t ~from ~kind:Flight.k_fab_stale_epoch ~a:target ~b:seen ~c:current;
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
   leg is the jittered wire time alone.  The one boxed float is the
   result, which [Engine.delay] takes as it is. *)
let leg_latency t leg ~from ~target ~bytes =
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
      let f = Drust_util.Rng.gaussian t.rng ~mu:1.0 ~sigma:t.sigma in
      raw *. (if f < 0.5 then 0.5 else if f > 2.0 then 2.0 else f)
  in
  match (leg, t.fault) with
  | Serialize, _ | _, None -> jittered
  | _, Some p ->
      jittered
      +. if from <> target then Fault.extra_latency p ~from ~target else 0.0

(* Hold [nic] for a bulk payload's jittered wire time, drawn once the
   NIC is ours; released on exception like [Resource.use], without its
   closure. *)
let serialize t nic ~from ~target ~bytes =
  Drust_sim.Resource.acquire nic;
  match
    Engine.delay t.engine (leg_latency t Serialize ~from ~target ~bytes)
  with
  | () -> Drust_sim.Resource.release nic
  | exception e ->
      Drust_sim.Resource.release nic;
      raise e

(* Block for the verb's latency; a bulk payload additionally holds the
   data source's NIC for its wire time, so concurrent bulk egress from
   one node serializes at line rate.  With a live [vt], each phase lands
   as a sub-span of the verb (propagation/wire -> [net.wire], waiting
   for the NIC -> [net.queue], holding it -> [net.serialize]) — the
   exact same delays and resource acquisitions happen either way. *)
let delay_with_nic ~vt t leg ~data_source ~from ~target ~bytes =
  let bulk = bytes >= bulk_threshold && from <> target in
  match vt with
  | None ->
      if bulk then begin
        Engine.delay t.engine (leg_latency t leg ~from ~target ~bytes:0);
        serialize t t.nics.(data_source) ~from ~target ~bytes
      end
      else Engine.delay t.engine (leg_latency t leg ~from ~target ~bytes)
  | Some { vt_sp = sp; vt_span = parent; _ } ->
      if bulk then begin
        Span.with_span sp ~track:from ~parent ~category:"net.wire" "propagate"
          (fun () ->
            Engine.delay t.engine (leg_latency t leg ~from ~target ~bytes:0));
        let wait =
          Span.start sp ~track:from ~parent ~category:"net.queue" "nic_wait"
        in
        Drust_sim.Resource.use t.nics.(data_source) (fun () ->
            Span.finish sp wait;
            Span.with_span sp ~track:from ~parent ~category:"net.serialize"
              "serialize" (fun () ->
                Engine.delay t.engine
                  (leg_latency t Serialize ~from ~target ~bytes)))
      end
      else
        Span.with_span sp ~track:from ~parent ~category:"net.wire" "wire"
          (fun () ->
            Engine.delay t.engine (leg_latency t leg ~from ~target ~bytes))

let note t ~from ~target ~bytes =
  let c = t.counters.(from) in
  Metrics.add c.c_bytes_out bytes;
  if from <> target then Metrics.incr c.c_remote_ops

(* The blocking verbs' bodies, shared by the untraced call (with
   [vt = None]) and the traced one. *)
let read_body t vt ~from ~target ~bytes epoch =
  (* READ pulls data out of the target: the target's NIC is the egress. *)
  delay_with_nic ~vt t Oneside ~data_source:target ~from ~target ~bytes;
  check_epoch t ~from ~target epoch;
  if from <> target then serve_mark vt ~target "SERVE(READ)"

let write_body t vt ~from ~target ~bytes epoch =
  (* WRITE pushes data from the sender: its NIC is the egress. *)
  delay_with_nic ~vt t Oneside ~data_source:from ~from ~target ~bytes;
  check_epoch t ~from ~target epoch;
  if from <> target then serve_mark vt ~target "SERVE(WRITE)"

let atomic_body t vt ~from ~target f =
  (match vt with
  | Some { vt_sp = sp; vt_span = parent; _ } ->
      Span.with_span sp ~track:from ~parent ~category:"net.wire" "wire"
        (fun () ->
          Engine.delay t.engine (leg_latency t Atomic ~from ~target ~bytes:0))
  | None ->
      Engine.delay t.engine (leg_latency t Atomic ~from ~target ~bytes:0));
  if from <> target then serve_mark vt ~target "SERVE(ATOMIC)";
  f ()

let rpc_body t vt ~from ~target ~req_bytes ~resp_bytes epoch handler =
  delay_with_nic ~vt t Twoside ~data_source:from ~from ~target ~bytes:req_bytes;
  check_epoch t ~from ~target epoch;
  if from <> target then serve_mark vt ~target "RECV(RPC)";
  let result = handler () in
  delay_with_nic ~vt t Twoside ~data_source:target ~from ~target
    ~bytes:resp_bytes;
  result

let rdma_read ?parent ?epoch t ~from ~target ~bytes =
  check_node t from "rdma_read";
  check_node t target "rdma_read";
  Metrics.incr t.counters.(from).c_reads;
  note t ~from ~target ~bytes;
  fr t ~from ~kind:Flight.k_fab_read ~a:target ~b:bytes ~c:(ep epoch);
  sync_guard t ~from ~target;
  match tracing t with
  | None -> read_body t None ~from ~target ~bytes epoch
  | Some sp ->
      with_verb_span sp "READ" ~from ~target ~bytes ?parent (fun vt ->
          read_body t vt ~from ~target ~bytes epoch)

let rdma_write ?parent ?epoch t ~from ~target ~bytes =
  check_node t from "rdma_write";
  check_node t target "rdma_write";
  Metrics.incr t.counters.(from).c_writes;
  note t ~from ~target ~bytes;
  fr t ~from ~kind:Flight.k_fab_write ~a:target ~b:bytes ~c:(ep epoch);
  sync_guard t ~from ~target;
  match tracing t with
  | None -> write_body t None ~from ~target ~bytes epoch
  | Some sp ->
      with_verb_span sp "WRITE" ~from ~target ~bytes ?parent (fun vt ->
          write_body t vt ~from ~target ~bytes epoch)

let rdma_write_async ?parent t ~from ~target ~bytes k =
  check_node t from "rdma_write_async";
  check_node t target "rdma_write_async";
  Metrics.incr t.counters.(from).c_writes;
  note t ~from ~target ~bytes;
  fr t ~from ~kind:Flight.k_fab_write ~a:target ~b:bytes ~c:(-1);
  if async_delivers t ~from ~target then begin
    let dt = leg_latency t Oneside ~from ~target ~bytes in
    match tracing t with
    | Some sp ->
        (* Flow edge from the posting instant to a RECV instant emitted
           by a wrapped callback at delivery time — same schedule_after,
           so the event order is unchanged. *)
        let fid = if from = target then 0 else Span.fresh_flow_id sp in
        let flow_out = if fid = 0 then [] else [ fid ] in
        Span.instant sp ~track:from ?parent ~flow_out ~category:"fabric"
          ~args:
            [ ("target", string_of_int target); ("bytes", string_of_int bytes) ]
          "WRITE(async)";
        Engine.schedule_after t.engine dt (fun () ->
            Span.instant sp ~track:target
              ~flow_in:(if fid = 0 then [] else [ fid ])
              ~category:"fabric" "RECV(WRITE)";
            k ())
    | None -> Engine.schedule_after t.engine dt k
  end

let rdma_atomic ?parent t ~from ~target f =
  check_node t from "rdma_atomic";
  check_node t target "rdma_atomic";
  Metrics.incr t.counters.(from).c_atomics;
  note t ~from ~target ~bytes:8;
  fr t ~from ~kind:Flight.k_fab_atomic ~a:target ~b:8 ~c:(-1);
  sync_guard t ~from ~target;
  match tracing t with
  | None -> atomic_body t None ~from ~target f
  | Some sp ->
      with_verb_span sp "ATOMIC" ~from ~target ~bytes:8 ?parent (fun vt ->
          atomic_body t vt ~from ~target f)

let rpc ?parent ?epoch t ~from ~target ~req_bytes ~resp_bytes handler =
  check_node t from "rpc";
  check_node t target "rpc";
  Metrics.incr t.counters.(from).c_rpcs;
  note t ~from ~target ~bytes:(req_bytes + resp_bytes);
  fr t ~from ~kind:Flight.k_fab_rpc ~a:target ~b:(req_bytes + resp_bytes)
    ~c:(ep epoch);
  sync_guard t ~from ~target;
  match tracing t with
  | None ->
      rpc_body t None ~from ~target ~req_bytes ~resp_bytes epoch handler
  | Some sp ->
      with_verb_span sp "RPC" ~from ~target ~bytes:(req_bytes + resp_bytes)
        ?parent (fun vt ->
          rpc_body t vt ~from ~target ~req_bytes ~resp_bytes epoch handler)

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
      Metrics.incr t.counters.(from).c_timeouts;
      mark ?parent t "TIMEOUT" ~from ~target ~bytes:0;
      fr t ~from ~kind:Flight.k_fab_timeout ~a:target ~b:0 ~c:0;
      raise (Rpc_timeout { from; target; timeout })

(* Retry [op] on Node_down / Rpc_timeout / Stale_epoch with exponential
   backoff, giving up (re-raising the last error) when the attempt count
   or the simulated-time budget runs out.  [op] re-resolves its own
   target (and re-reads its membership view) each attempt, which is what
   lets a retry land on a freshly promoted backup or carry the epoch a
   handoff announcement just installed. *)
let retry_with_backoff ?parent t ~from ?(attempts = 8) ?(base_delay = 50e-6)
    ?(max_delay = 5e-3) ?(budget = Float.infinity) ?(jitter = 0.25) op =
  check_node t from "retry_with_backoff";
  if attempts < 1 then invalid_arg "Fabric.retry_with_backoff: attempts < 1";
  if jitter < 0.0 || jitter > 1.0 then
    invalid_arg "Fabric.retry_with_backoff: jitter outside [0, 1]";
  let deadline = Engine.now t.engine +. budget in
  let rec go n delay =
    match op () with
    | v -> v
    | exception ((Node_down _ | Rpc_timeout _ | Stale_epoch _) as e) ->
        if n + 1 >= attempts || Engine.now t.engine +. delay > deadline then
          raise e
        else begin
          Metrics.incr t.counters.(from).c_retries;
          mark ?parent t "RETRY" ~from ~target:from ~bytes:0;
          fr t ~from ~kind:Flight.k_fab_retry ~a:(n + 1) ~b:0 ~c:0;
          (* +-jitter seeded multiplicative noise decorrelates retry
             storms; the draw happens even at jitter = 0 so turning
             jitter off does not shift the RNG stream. *)
          let d =
            delay *. (1.0 -. jitter +. Drust_util.Rng.float t.rng (2.0 *. jitter))
          in
          Engine.delay t.engine d;
          go (n + 1) (Float.min max_delay (delay *. 2.0))
        end
  in
  go 0 base_delay

let send_async ?parent t ~from ~target ~bytes handler =
  check_node t from "send_async";
  check_node t target "send_async";
  Metrics.incr t.counters.(from).c_rpcs;
  note t ~from ~target ~bytes;
  fr t ~from ~kind:Flight.k_fab_send ~a:target ~b:bytes ~c:(-1);
  if async_delivers t ~from ~target then begin
    let dt = leg_latency t Twoside ~from ~target ~bytes in
    let handler =
      match tracing t with
      | Some sp ->
          let fid = if from = target then 0 else Span.fresh_flow_id sp in
          let flow_out = if fid = 0 then [] else [ fid ] in
          Span.instant sp ~track:from ?parent ~flow_out ~category:"fabric"
            ~args:
              [ ("target", string_of_int target);
                ("bytes", string_of_int bytes) ]
            "SEND(async)";
          fun () ->
            Span.instant sp ~track:target
              ~flow_in:(if fid = 0 then [] else [ fid ])
              ~category:"fabric" "RECV(SEND)";
            handler ()
      | None -> handler
    in
    ignore (Engine.spawn ~at:(Engine.now t.engine +. dt) t.engine handler)
  end
