(* Elastic membership: an epoch-stamped view of which nodes are active
   and a two-phase handoff protocol for moving a home range between live
   servers (ROADMAP item 1 — the paper's deployment is a fixed ring
   whose only membership change is crash-then-promotion, §4.2.3).

   The view is a state per node (Active / Standby / Failed) plus a
   monotonically increasing epoch, owned by the controller's coordinator
   process.  Every committed handoff and every failover bumps the epoch
   and asynchronously announces the new value to all alive nodes; until
   an announcement lands, a node's clients keep stamping verbs with the
   old epoch and the fabric rejects them ([Fabric.Stale_epoch]), which
   [Fabric.retry_with_backoff] turns into a re-read of the view and a
   reissue — stale routing state degrades to a retry, never a silent
   wrong-node serve.

   A handoff is two-phase:

     prepare  record the in-flight transfer, emit [Handoff_prepared];
     drain    flush pending replication write-backs ([sync_now]) so the
              backups are current before the range moves;
     copy     charge the bulk transfer wire time as chunked one-sided
              WRITEs from the old server to the new one — each chunk is
              a fault-injection point, so a crash mid-handoff surfaces
              as [Node_down] here;
     commit   atomically (no yield points): snapshot the served store,
              swap the serving map and purge every alive cache of the
              moved range ([Cluster.promote]), bump the epoch, emit
              [Handoff_committed], announce;
     reseed   rebuild the range's replica chain from the new server
              ([Replication.reseed_chain]), emit [Chain_reseeded].

   A crash during drain/copy aborts the handoff ([Handoff_aborted]): the
   serving map is untouched, so the heartbeat detector's ordinary
   promotion path recovers the range — exactly the fallback DSan's
   handoff-atomicity invariant expects.  The snapshot is taken inside
   the commit (not at prepare), so writes that land while the bulk copy
   is in flight are part of the moved image: a committed-and-acked write
   cannot be lost to a planned handoff. *)

module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Engine = Drust_sim.Engine
module Fabric = Drust_net.Fabric
module Partition = Drust_memory.Partition
module Metrics = Drust_obs.Metrics
module Span = Drust_obs.Span
module Tap = Drust_memory.Tap

type node_state = Active | Standby | Failed

type handoff = {
  ho_home : int;
  ho_from : int;
  ho_to : int;
  ho_started : float;
}

type handoff_error = [ `Refused of string | `Aborted of string ]

type t = {
  cluster : Cluster.t;
  replication : Replication.t;
  states : node_state array;
  mutable epoch : int;
  (* known.(i): the view epoch node [i] has been told about; clients on
     [i] stamp their verbs with it. *)
  known : int array;
  mutable in_flight : handoff option;
  c_joins : Metrics.counter;
  c_leaves : Metrics.counter;
  c_commits : Metrics.counter;
  c_aborts : Metrics.counter;
  c_view_changes : Metrics.counter;
}

let mark t name ~node =
  let sp = Cluster.spans t.cluster in
  if Span.is_enabled sp then
    Span.instant sp ~track:0 ~category:"membership"
      ~args:[ ("node", string_of_int node) ]
      name

let create ?active cluster ~replication =
  let n = Cluster.node_count cluster in
  let active = match active with Some a -> a | None -> n in
  if active < 1 || active > n then
    invalid_arg "Membership.create: need 1 <= active <= nodes";
  let m = Cluster.metrics cluster in
  let c name = Metrics.counter m ~unit_:"ops" name in
  let t =
    {
      cluster;
      replication;
      states = Array.init n (fun i -> if i < active then Active else Standby);
      epoch = 0;
      known = Array.make n 0;
      in_flight = None;
      c_joins = c "membership.joins";
      c_leaves = c "membership.leaves";
      c_commits = c "membership.handoff_commits";
      c_aborts = c "membership.handoff_aborts";
      c_view_changes = c "membership.view_changes";
    }
  in
  (* From now on, verbs stamped with an [?epoch] are validated against
     the live view at serve time. *)
  Fabric.set_epoch_source (Cluster.fabric cluster) (Some (fun () -> t.epoch));
  t

let epoch t = t.epoch

let known_epoch t ~node =
  if node < 0 || node >= Array.length t.known then
    invalid_arg "Membership.known_epoch: node out of range";
  t.known.(node)

let in_flight_handoff t =
  match t.in_flight with
  | None -> None
  | Some h -> Some (h.ho_home, h.ho_from, h.ho_to)

(* Asynchronously push the current epoch to every alive node.  Delivery
   latency is the window in which that node's clients still carry the
   old epoch and eat Stale_epoch retries. *)
let announce ctx t =
  let e = t.epoch in
  let me = ctx.Ctx.node in
  if e > t.known.(me) then t.known.(me) <- e;
  let fabric = Cluster.fabric t.cluster in
  List.iter
    (fun id ->
      if id <> me then
        Fabric.send_async fabric ~from:me ~target:id ~bytes:48 (fun () ->
            if e > t.known.(id) then t.known.(id) <- e))
    (Cluster.alive_nodes t.cluster)

let bump_view ctx t reason =
  t.epoch <- t.epoch + 1;
  Metrics.incr t.c_view_changes;
  (* Membership transitions go to the flight recorder, on the acting
     node's ring, and to the tap with no thread identity — the DSan
     sanitizer mirrors them into its shadow view. *)
  Cluster.transition t.cluster ~node:ctx.Ctx.node
    (Tap.View_change { epoch = t.epoch; reason });
  announce ctx t

(* The controller's failure verdict, called before promotion: the view
   loses the node and every survivor learns the new epoch, so in-flight
   verbs routed under the old view are NAKed rather than answered by
   whoever picks up the dead ranges. *)
let node_failed ctx t ~node =
  if node >= 0 && node < Array.length t.states && t.states.(node) <> Failed
  then begin
    t.states.(node) <- Failed;
    mark t "MEMBER_FAILED" ~node;
    bump_view ctx t (Printf.sprintf "failover: node %d" node)
  end

let alive t id = (Cluster.node t.cluster id).Cluster.alive

let homes_served_by t id =
  let out = ref [] in
  for home = Cluster.node_count t.cluster - 1 downto 0 do
    if Cluster.serving_node t.cluster home = id then out := home :: !out
  done;
  !out

let range_bytes t home = Partition.used_bytes (Cluster.serving_store t.cluster home)

(* Bytes served is the load signal (ties broken toward the lower id so
   selection is deterministic). *)
let load t id =
  List.fold_left (fun acc h -> acc + range_bytes t h) 0 (homes_served_by t id)

(* The alive active member other than [except] whose load [better]
   prefers to every other's: [( > )] picks the most loaded, [( < )] the
   least. *)
let pick_active t ~except ~(better : int -> int -> bool) =
  let best = ref (-1) and best_load = ref 0 in
  Array.iteri
    (fun id st ->
      if st = Active && id <> except && alive t id then begin
        let l = load t id in
        if !best < 0 || better l !best_load then begin
          best := id;
          best_load := l
        end
      end)
    t.states;
  if !best < 0 then None else Some !best

(* Copy chunk size: each chunk is a separate synchronous WRITE, so a
   crash injected mid-handoff interrupts the copy at the next chunk. *)
let copy_chunk = 64 * 1024

let handoff ctx t ~home ~to_node =
  let n = Cluster.node_count t.cluster in
  if home < 0 || home >= n then
    invalid_arg "Membership.handoff: home out of range";
  if to_node < 0 || to_node >= n then
    invalid_arg "Membership.handoff: target out of range";
  let from_node = Cluster.serving_node t.cluster home in
  if t.in_flight <> None then Error (`Refused "another handoff is in flight")
  else if from_node = to_node then
    Error (`Refused "target already serves the range")
  else if not (alive t from_node) then Error (`Refused "server is dead")
  else if not (alive t to_node) then Error (`Refused "target is dead")
  else begin
    let now = Engine.now (Cluster.engine t.cluster) in
    t.in_flight <- Some { ho_home = home; ho_from = from_node; ho_to = to_node; ho_started = now };
    mark t "HANDOFF_PREPARE" ~node:home;
    Cluster.transition t.cluster ~node:ctx.Ctx.node
      (Tap.Handoff_prepared { home; from_node; to_node });
    let fabric = Cluster.fabric t.cluster in
    match
      (* Drain: backups must be current before the range moves, so an
         abort leaves nothing newer than the replicas. *)
      Replication.sync_now ctx t.replication;
      (* Charge the bulk copy's wire time, chunked.  The store snapshot
         happens at commit (below), after time has passed: writes landing
         during the copy are included in the moved image. *)
      let total = max 64 (range_bytes t home) in
      let remaining = ref total in
      while !remaining > 0 do
        let b = min copy_chunk !remaining in
        Fabric.rdma_write fabric ~from:from_node ~target:to_node ~bytes:b;
        remaining := !remaining - b
      done
    with
    | exception ((Fabric.Node_down _ | Fabric.Rpc_timeout _) as e) ->
        (* Clean abort: the serving map never changed, so the ordinary
           failover path (detector -> fail_and_promote) recovers the
           range if its server is the casualty. *)
        t.in_flight <- None;
        Metrics.incr t.c_aborts;
        mark t "HANDOFF_ABORT" ~node:home;
        let reason = Printexc.to_string e in
        Cluster.transition t.cluster ~node:ctx.Ctx.node
          (Tap.Handoff_aborted { home; from_node; to_node; reason });
        Error (`Aborted reason)
    | () ->
        (* Commit: everything from here to the committed event runs
           without a yield point, so no verb can observe a half-moved
           range (the atomicity DSan checks). *)
        let capacity =
          (Cluster.params t.cluster).Drust_machine.Params.mem_per_node
        in
        let fresh = Partition.create ~node:home ~capacity_bytes:capacity in
        Partition.iter (Cluster.serving_store t.cluster home) (fun g e ->
            Partition.put fresh g ~size:e.Partition.size e.Partition.value);
        Cluster.promote t.cluster ~home ~by:to_node ~store:fresh;
        t.epoch <- t.epoch + 1;
        t.in_flight <- None;
        Metrics.incr t.c_commits;
        Metrics.incr t.c_view_changes;
        mark t "HANDOFF_COMMIT" ~node:home;
        Cluster.transition t.cluster ~node:ctx.Ctx.node
          (Tap.Handoff_committed { home; from_node; to_node; epoch = t.epoch });
        announce ctx t;
        let hosts = Replication.reseed_chain ctx t.replication ~home in
        Cluster.transition t.cluster ~node:ctx.Ctx.node
          (Tap.Chain_reseeded { home; server = to_node; hosts });
        Ok ()
  end

let join ctx t ~node =
  if node < 0 || node >= Array.length t.states then
    invalid_arg "Membership.join: node out of range";
  if t.states.(node) <> Standby then
    Error (`Refused "join: node is not standby")
  else if not (alive t node) then Error (`Refused "join: node is dead")
  else begin
    t.states.(node) <- Active;
    mark t "JOIN" ~node;
    bump_view ctx t (Printf.sprintf "join: node %d" node);
    (* Rebalance: take one home range off the most-loaded member.  With
       no donor (first member, or every other member empty and serving
       nothing) the joiner starts cold. *)
    let donor =
      match pick_active t ~except:node ~better:( > ) with
      | Some d when homes_served_by t d <> [] -> Some d
      | _ -> None
    in
    match donor with
    | None ->
        Metrics.incr t.c_joins;
        Ok None
    | Some d ->
        let home =
          List.fold_left
            (fun best h ->
              match best with
              | None -> Some h
              | Some b -> if range_bytes t h > range_bytes t b then Some h else best)
            None (homes_served_by t d)
        in
        let home = Option.get home in
        (match handoff ctx t ~home ~to_node:node with
        | Ok () ->
            Metrics.incr t.c_joins;
            Ok (Some home)
        | Error e ->
            (* The activation is rolled back: a join whose seed handoff
               failed never happened as far as placement is concerned. *)
            t.states.(node) <- Standby;
            bump_view ctx t (Printf.sprintf "join rollback: node %d" node);
            Error e)
  end

let leave ctx t ~node =
  if node < 0 || node >= Array.length t.states then
    invalid_arg "Membership.leave: node out of range";
  if t.states.(node) <> Active then Error (`Refused "leave: node is not active")
  else if not (alive t node) then Error (`Refused "leave: node is dead")
  else begin
    mark t "LEAVE" ~node;
    (* Drain first (graceful leave): pending write-backs reach the
       backups before any range moves. *)
    Replication.sync_now ctx t.replication;
    let rec move acc =
      match homes_served_by t node with
      | [] -> Ok (List.rev acc)
      | home :: _ -> (
          match pick_active t ~except:node ~better:( < ) with
          | None -> Error (`Refused "leave: no other active node to inherit")
          | Some target -> (
              match handoff ctx t ~home ~to_node:target with
              | Ok () -> move (home :: acc)
              | Error e -> Error e))
    in
    match move [] with
    | Ok moved ->
        t.states.(node) <- Standby;
        Metrics.incr t.c_leaves;
        bump_view ctx t (Printf.sprintf "leave: node %d" node);
        Ok moved
    | Error e -> Error e
  end
