(* Deterministic fault injection: a seeded plan of node crashes, transient
   network partitions, and per-link impairments (message-drop probability,
   extra fixed latency, latency jitter).

   The plan is *declarative and lazy*: injecting a fault records it, and
   the fabric consults the plan against the engine's virtual clock on
   every verb.  Nothing here schedules events or races the event queue,
   so a chaos run is a pure function of the plan plus the RNG seed —
   two runs with the same configuration are bit-identical, which is what
   lets failover experiments assert reproducibility. *)

module Rng = Drust_util.Rng
module Flight = Drust_obs.Flight

type link = { drop : float; extra_latency : float; jitter : float }

type crash = { node : int; at : float }

(* A transient partition: while [from_t <= now < until], messages whose
   endpoints fall on different sides of [members] are blackholed. *)
type cut = { members : bool array; from_t : float; until : float }

type t = {
  engine : Engine.t;
  rng : Rng.t;
  nodes : int;
  flight : Flight.t;
  mutable crashes : crash list;
  mutable cuts : cut list;
  links : link option array array; (* links.(from).(target) *)
}

let create ~engine ~rng ~flight ~nodes =
  if nodes <= 0 then invalid_arg "Fault.create: need at least one node";
  {
    engine;
    rng;
    nodes;
    flight;
    crashes = [];
    cuts = [];
    links = Array.make_matrix nodes nodes None;
  }

(* Echo one injection into the flight recorder, on the controller's ring
   (node 0) and stamped with the fault's declared time, so a post-mortem
   dump shows what the plan threw at the run. *)
let record t ~time ~kind ~a ~b ~c =
  Flight.record t.flight ~node:0 ~time ~kind ~a ~b ~c ~d:0

let check_node t n label =
  if n < 0 || n >= t.nodes then
    invalid_arg (Printf.sprintf "Fault.%s: node %d out of range" label n)

let crash_at t ~node ~at =
  check_node t node "crash_at";
  if at < 0.0 then invalid_arg "Fault.crash_at: negative time";
  t.crashes <- { node; at } :: t.crashes;
  record t ~time:at ~kind:Flight.k_fault_crash ~a:node ~b:0 ~c:0

let partition_at t ~group ~at ~heal_at =
  if heal_at <= at then invalid_arg "Fault.partition_at: empty window";
  let members = Array.make t.nodes false in
  List.iter
    (fun n ->
      check_node t n "partition_at";
      members.(n) <- true)
    group;
  t.cuts <- { members; from_t = at; until = heal_at } :: t.cuts;
  record t ~time:at ~kind:Flight.k_fault_partition
    ~a:(match group with n :: _ -> n | [] -> -1)
    ~b:(List.length group) ~c:0

(* A short-lived cut expressed by duration: the common shape for testing
   detector grace periods ("does a partition shorter than the declare
   threshold stay invisible?"). *)
let degrade_link t ~from ~target ?(drop = 0.0) ?(extra_latency = 0.0)
    ?(jitter = 0.0) () =
  check_node t from "degrade_link";
  check_node t target "degrade_link";
  if drop < 0.0 || drop > 1.0 then invalid_arg "Fault.degrade_link: drop not a probability";
  if extra_latency < 0.0 || jitter < 0.0 then
    invalid_arg "Fault.degrade_link: negative latency";
  t.links.(from).(target) <- Some { drop; extra_latency; jitter };
  (* A link impairment has no onset: it is stamped at time 0, and only
     its drop probability (in thousandths) is echoed. *)
  record t ~time:0.0 ~kind:Flight.k_fault_degrade ~a:from ~b:target
    ~c:(int_of_float (drop *. 1000.0))

(* The two queries run on every fabric verb under a plan, so they are
   closure-free walks that read the clock inline: a closure would
   capture the clock's instant and box it on every call. *)
let rec crashed_in engine node = function
  | [] -> false
  | c :: rest ->
      (c.node = node && c.at <= Engine.now engine)
      || crashed_in engine node rest

let is_down t node =
  check_node t node "is_down";
  crashed_in t.engine node t.crashes

let rec severed_in engine ~from ~target = function
  | [] -> false
  | c :: rest ->
      let n = Engine.now engine in
      (c.from_t <= n && n < c.until && c.members.(from) <> c.members.(target))
      || severed_in engine ~from ~target rest

let severed t ~from ~target = severed_in t.engine ~from ~target t.cuts

(* Sample the drop coin for one message.  Draws from the plan's own RNG
   stream, so drops are reproducible given the same verb sequence. *)
let drops t ~from ~target =
  match t.links.(from).(target) with
  | Some l when l.drop > 0.0 -> Rng.bernoulli t.rng ~p:l.drop
  | Some _ | None -> false

let extra_latency t ~from ~target =
  match t.links.(from).(target) with
  | None -> 0.0
  | Some l ->
      l.extra_latency
      +. (if l.jitter > 0.0 then Rng.float t.rng l.jitter else 0.0)

let nak_delay = 15e-6
