(* The failover and churn scenario bodies, moved verbatim from
   lib/experiments so [Simplan.execute] can drive them from a plan
   record.  The caller builds the cluster and installs the fault plan
   (the plan's declarative fault events), then hands both in; the
   bodies here spawn the clients/daemons, run the engine to completion,
   and collect a result record.  No assertions: robustness checks live
   with the experiment grids, and the fuzzer needs generated plans to
   report violations through the oracle rather than abort mid-run. *)

module Engine = Drust_sim.Engine
module Fault = Drust_sim.Fault
module Cluster = Drust_machine.Cluster
module Ctx = Drust_machine.Ctx
module Fabric = Drust_net.Fabric
module Controller = Drust_runtime.Controller
module Replication = Drust_runtime.Replication
module Membership = Drust_runtime.Membership
module P = Drust_core.Protocol
module Rng = Drust_util.Rng
module Univ = Drust_util.Univ
module Metrics = Drust_obs.Metrics

let int_tag : int Univ.tag = Univ.create_tag ~name:"scenario.int"
let pack = Univ.pack int_tag
let unpack v = Univ.unpack_exn int_tag v

(* ------------------------------------------------------------------ *)
(* Failover                                                            *)

type failover_spec = {
  fo_nodes : int;
  fo_keys : int;
  fo_key_bytes : int;
  fo_duration : float;
  fo_crash_t : float;
  fo_victim : int;
  fo_bucket : float;
  fo_think : float;
}

let default_failover =
  {
    fo_nodes = 4;
    fo_keys = 16;
    fo_key_bytes = 64;
    fo_duration = 60e-3;
    fo_crash_t = 20e-3;
    fo_victim = 1;
    fo_bucket = 5e-3;
    fo_think = 2e-5;
  }

type failover_result = {
  seed : int;
  victim : int;
  crash_time : float;
  detection_time : float option;
  recovery_time : float option;
  curve : int array;
  bucket : float;
  total_ops : int;
  failed_ops : int;
  retries : int;
  timeouts : int;
  drops : int;
  op_latency : Metrics.histo option;
}

let failover ~cluster ~fault ~seed spec =
  let { fo_nodes = nodes; fo_keys = n_keys; fo_key_bytes = key_bytes;
        fo_duration = duration; fo_crash_t = crash_t; fo_victim = victim;
        fo_bucket = bucket_w; fo_think = think } = spec
  in
  let engine = Cluster.engine cluster in
  let fabric = Cluster.fabric cluster in
  let plan = fault in
  let n_buckets = int_of_float (ceil (duration /. bucket_w)) in
  let curve = Array.make n_buckets 0 in
  let total_ops = ref 0 and failed_ops = ref 0 in
  let recovery = ref None in
  let ctrl = ref None in
  ignore
    (Engine.spawn engine (fun () ->
         let ctx = Ctx.make cluster ~node:0 in
         (* Keys are pinned (they never migrate), spread round-robin, so
            node [victim]'s range holds real data when it dies. *)
         let keys =
           Array.init n_keys (fun i ->
               let o =
                 P.create_on ctx ~node:(i mod nodes) ~size:key_bytes (pack 0)
               in
               P.pin ctx o;
               o)
         in
         (* Enable replication after setup so the snapshot captures the
            keys; then hand the manager to the detector. *)
         let repl = Replication.enable cluster in
         let c = Controller.start ~replication:repl cluster in
         ctrl := Some c;
         Engine.schedule engine ~at:duration (fun () -> Controller.stop c);
         (* Periodic checkpoint: without it, write-backs only happen on
            ownership escape, which pinned keys never do. *)
         ignore
           (Engine.spawn engine (fun () ->
                let fctx = Ctx.make cluster ~node:0 in
                while Engine.now engine < duration do
                  Engine.delay engine 2e-3;
                  if Engine.now engine < duration then
                    (* A checkpoint round that hits a dead or partitioned
                       node (compound fault plans reach this; the plain
                       crash-only figure never does) skips the round —
                       the next tick retries after detection/healing. *)
                    try Replication.sync_now fctx repl
                    with
                    | Fabric.Node_down _ | Fabric.Rpc_timeout _
                    | Fabric.Stale_epoch _ ->
                        ()
                done));
         (* One client per node.  A client on a crashed node stops at its
            next iteration — its server is gone. *)
         Array.iteri
           (fun c _ ->
             ignore
               (Engine.spawn engine (fun () ->
                    let w = Ctx.make cluster ~node:c in
                    let i = ref 0 in
                    while
                      Engine.now engine < duration
                      && not (Fault.is_down plan w.Ctx.node)
                    do
                      let k = ((c * 7) + !i) mod n_keys in
                      let key = keys.(k) in
                      let is_write = !i mod 4 = 0 in
                      (match
                         Fabric.retry_with_backoff fabric ~from:w.Ctx.node
                           ~attempts:12 ~base_delay:2e-4 ~budget:0.03
                           (fun () ->
                             if is_write then
                               P.owner_modify w key (fun v ->
                                   pack (unpack v + 1))
                             else ignore (P.owner_read w key))
                       with
                      | () ->
                          total_ops := !total_ops + 1;
                          let b =
                            min (n_buckets - 1)
                              (int_of_float (Engine.now engine /. bucket_w))
                          in
                          curve.(b) <- curve.(b) + 1;
                          if
                            is_write
                            && k mod nodes = victim
                            && Engine.now engine > crash_t
                            && !recovery = None
                          then recovery := Some (Engine.now engine)
                      | exception (Fabric.Node_down _ | Fabric.Rpc_timeout _)
                        ->
                          failed_ops := !failed_ops + 1);
                      incr i;
                      Engine.delay engine think
                    done)))
           (Array.make nodes ())));
  Cluster.run cluster;
  let detection_time =
    match !ctrl with
    | None -> None
    | Some c -> List.assoc_opt victim (Controller.deaths c)
  in
  let snap = Metrics.snapshot (Cluster.metrics cluster) in
  let retries = ref (Metrics.total snap "fabric.retries")
  and timeouts = ref (Metrics.total snap "fabric.timeouts")
  and drops = ref (Metrics.total snap "fabric.drops") in
  {
    seed;
    victim;
    crash_time = crash_t;
    detection_time;
    recovery_time = !recovery;
    curve;
    bucket = bucket_w;
    total_ops = !total_ops;
    failed_ops = !failed_ops;
    retries = !retries;
    timeouts = !timeouts;
    drops = !drops;
    op_latency = Metrics.merged_histo snap "protocol.op_latency";
  }

(* ------------------------------------------------------------------ *)
(* Churn                                                               *)

type churn_spec = {
  ch_nodes : int;
  ch_active0 : int;
  ch_joiners : int list;
  ch_leavers : int list;
  ch_sabotaged : int;
  ch_victim : int;
  ch_crash_t : float;
  ch_duration : float;
  ch_churn_start : float;
  ch_churn_gap : float;
  ch_think : float;
  ch_key_bytes : int;
  ch_ballast_bytes : int;
  ch_zipf_theta : float;
  ch_replicas : int;
}

(* Membership schedule derived from the node count so the same scenario
   runs at 64 nodes (the paper-scale run) and 16 nodes (the CI alias).
   One extra leaver beyond the graceful quota is sabotaged: its leave is
   crashed mid-handoff and must abort, so the graceful quota completes
   regardless. *)
let churn_spec_of ~nodes =
  if nodes < 16 then invalid_arg "Churn: need at least 16 nodes";
  let standby = max 2 (nodes / 4) in
  let active0 = nodes - standby in
  let n_joins = min standby (max 2 (nodes / 8)) in
  let n_leaves = max 2 (nodes / 8) in
  (* Leavers at 2, 5, 8, ... : spaced so no leaver is the ring successor
     of another leaver or of the victim (replica hosts of a crashed
     range must stay alive; replicas = 2 covers one dead successor). *)
  let leaver i = 2 + (3 * i) in
  if leaver n_leaves >= active0 - 2 then
    invalid_arg "Churn: too few active nodes for the leave schedule";
  {
    ch_nodes = nodes;
    ch_active0 = active0;
    ch_joiners = List.init n_joins (fun i -> active0 + i);
    ch_leavers = List.init n_leaves leaver;
    ch_sabotaged = leaver n_leaves;
    ch_victim = active0 - 2;
    ch_crash_t = 30e-3;
    ch_duration = 100e-3;
    ch_churn_start = 10e-3;
    ch_churn_gap = 4e-3;
    ch_think = 5e-5;
    ch_key_bytes = 256;
    ch_ballast_bytes = 256 * 1024;  (* multi-chunk handoffs: copy_chunk is 64 KiB *)
    ch_zipf_theta = 0.99;
    ch_replicas = 2;
  }

type churn_result = {
  seed : int;
  nodes : int;
  total_ops : int;
  failed_ops : int;
  lost_writes : int;
  unreadable_keys : int;
  joins : int;
  leaves : int;
  handoff_commits : int;
  handoff_aborts : int;
  final_epoch : int;
  stale_epochs : int;
  retries : int;
  crashes : (int * float) list;
  detection : (int * float) list;
  recovery : (int * float) list;
  handoff_latency : float list;
  unrecoverable : int list;
  op_latency : Metrics.histo option;
}

(* Zipf(theta) over [0, n): precomputed CDF + binary search. *)
let zipf_cdf n theta =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_pick cdf rng =
  let u = Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

type op = Join of int | Leave of int

let rec interleave a b =
  match (a, b) with
  | [], r | r, [] -> r
  | x :: xs, y :: ys -> x :: y :: interleave xs ys

let churn ~cluster ~fault ~seed spec =
  let { ch_nodes = nodes; ch_active0 = active0; ch_joiners = joiners;
        ch_leavers = leavers; ch_sabotaged = sabotaged; ch_victim = victim;
        ch_crash_t = planned_crash_t; ch_duration = duration;
        ch_churn_start = churn_start; ch_churn_gap = churn_gap;
        ch_think = think; ch_key_bytes = key_bytes;
        ch_ballast_bytes = ballast_bytes; ch_zipf_theta = zipf_theta;
        ch_replicas = replicas } = spec
  in
  let n_keys = 4 * active0 in
  let engine = Cluster.engine cluster in
  let fabric = Cluster.fabric cluster in
  let fplan = fault in
  let cdf = zipf_cdf n_keys zipf_theta in
  let total_ops = ref 0 and failed_ops = ref 0 in
  let acked = Array.make n_keys 0 in
  (* acked counts as of the last completed replication sync: the floor a
     crash-affected range must still satisfy at the end of the run. *)
  let synced = Array.make n_keys 0 in
  let lost = ref 0 and unreadable = ref 0 in
  (* (victim, crash time, homes the victim was serving), newest first. *)
  let crash_log = ref [] in
  let recovered : (int, float) Hashtbl.t = Hashtbl.create 4 in
  let handoffs = ref [] in
  let sabotage = ref None in
  let ctrl = ref None and member = ref None and repl_ref = ref None in
  let homes_served_by v =
    List.filter
      (fun h -> Cluster.serving_node cluster h = v)
      (List.init nodes Fun.id)
  in
  let log_crash v at =
    crash_log := (v, at, homes_served_by v) :: !crash_log
  in
  ignore
    (Engine.spawn engine (fun () ->
         let ctx = Ctx.make cluster ~node:0 in
         (* Pinned keys round-robin over the initially active nodes, plus
            per-node ballast so every handoff moves a multi-chunk image
            (the chunk boundaries are the mid-handoff crash points). *)
         let keys =
           Array.init n_keys (fun i ->
               let o =
                 P.create_on ctx ~node:(i mod active0) ~size:key_bytes (pack 0)
               in
               P.pin ctx o;
               o)
         in
         for n = 0 to active0 - 1 do
           let b = P.create_on ctx ~node:n ~size:ballast_bytes (pack 0) in
           P.pin ctx b
         done;
         let repl = Replication.enable ~replicas cluster in
         repl_ref := Some repl;
         let m = Membership.create ~active:active0 cluster ~replication:repl in
         member := Some m;
         let c = Controller.start ~replication:repl ~membership:m cluster in
         ctrl := Some c;
         Engine.schedule engine ~at:duration (fun () -> Controller.stop c);
         Engine.schedule engine ~at:planned_crash_t (fun () ->
             log_crash victim planned_crash_t);
         (* Replication checkpoint daemon; [synced] snapshots the acked
            counts from *before* each flush (writes acked mid-flush make
            no durability promise until the next one). *)
         ignore
           (Engine.spawn engine (fun () ->
                let fctx = Ctx.make cluster ~node:0 in
                while Engine.now engine < duration do
                  Engine.delay engine 1e-3;
                  if Engine.now engine < duration then begin
                    let before = Array.copy acked in
                    Replication.sync_now fctx repl;
                    Array.blit before 0 synced 0 n_keys
                  end
                done));
         (* Mid-handoff saboteur: once armed with a leaver, poll the
            in-flight transfer and fail-stop the departing server while
            its range is mid-copy.  The handoff must abort cleanly and
            the heartbeat detector must recover the node's ranges. *)
         ignore
           (Engine.spawn engine (fun () ->
                let armed = ref true in
                while !armed && Engine.now engine < duration do
                  Engine.delay engine 2e-5;
                  match (!sabotage, Membership.in_flight_handoff m) with
                  | Some l, Some (_, from_node, _) when from_node = l ->
                      let now = Engine.now engine in
                      Fault.crash_at fplan ~node:l ~at:now;
                      log_crash l now;
                      sabotage := None;
                      armed := false
                  | _ -> ()
                done));
         (* One client per initially-active node, zipf key choice (each
            client's rank->key permutation differs, spreading the hot
            set across ranges).  Writes go to a per-client disjoint key
            set: pinned keys are write-through without ownership
            transfer, so two concurrent read-modify-writes of one key
            would race (both read v, both ack v+1) and break the
            acked-increment ledger the lost-write audit relies on. *)
         for cl = 0 to active0 - 1 do
           ignore
             (Engine.spawn engine (fun () ->
                  let w = Ctx.make cluster ~node:cl in
                  let rng =
                    Rng.create ~seed:((seed * 9176) + (cl * 131) + 7)
                  in
                  let own_keys =
                    Array.of_list
                      (List.filter
                         (fun k -> ((k * 7) + 3) mod active0 = cl)
                         (List.init n_keys Fun.id))
                  in
                  Engine.delay engine
                    (think *. float_of_int cl /. float_of_int active0);
                  let i = ref 0 in
                  while
                    Engine.now engine < duration
                    && not (Fault.is_down fplan cl)
                  do
                    let is_write =
                      !i mod 4 = 0 && Array.length own_keys > 0
                    in
                    let k =
                      let r = zipf_pick cdf rng in
                      if is_write then own_keys.(r mod Array.length own_keys)
                      else (r + (cl * 13)) mod n_keys
                    in
                    let key = keys.(k) in
                    let home = k mod active0 in
                    (match
                       Fabric.retry_with_backoff fabric ~from:cl ~attempts:16
                         ~base_delay:2e-4 ~budget:0.05 (fun () ->
                           (* Epoch-stamped routing probe: a client whose
                              node has not yet heard the latest view is
                              NAKed here and retries after the
                              announcement lands. *)
                           let server = Cluster.serving_node cluster home in
                           if server <> cl then
                             Fabric.rdma_read fabric ~from:cl ~target:server
                               ~bytes:16
                               ~epoch:(Membership.known_epoch m ~node:cl);
                           if is_write then
                             P.owner_modify w key (fun v -> pack (unpack v + 1))
                           else ignore (P.owner_read w key))
                     with
                    | () ->
                        incr total_ops;
                        if is_write then begin
                          acked.(k) <- acked.(k) + 1;
                          List.iter
                            (fun (v, ct, homes) ->
                              (* Read inside: a captured instant is a box. *)
                              let now = Engine.now engine in
                              if
                                (not (Hashtbl.mem recovered v))
                                && now > ct && List.mem home homes
                              then Hashtbl.replace recovered v (now -. ct))
                            !crash_log
                        end
                    | exception
                        ( Fabric.Node_down _ | Fabric.Rpc_timeout _
                        | Fabric.Stale_epoch _ ) ->
                        incr failed_ops);
                    incr i;
                    Engine.delay engine think
                  done))
         done;
         (* The churn driver: joins and leaves interleaved, one every
            [churn_gap]; the sabotaged leave arms the watcher first. *)
         let ops =
           interleave
             (List.map (fun n -> Join n) joiners)
             (List.map (fun n -> Leave n) (leavers @ [ sabotaged ]))
         in
         Engine.delay engine (churn_start -. Engine.now engine);
         List.iter
           (fun op ->
             if Engine.now engine < duration then begin
               let t0 = Engine.now engine in
               (match op with
               | Join n -> (
                   match Membership.join ctx m ~node:n with
                   | Ok _ -> handoffs := (Engine.now engine -. t0) :: !handoffs
                   | Error _ -> ())
               | Leave n -> (
                   if n = sabotaged then sabotage := Some n;
                   match Membership.leave ctx m ~node:n with
                   | Ok _ -> handoffs := (Engine.now engine -. t0) :: !handoffs
                   | Error _ -> ()));
               Engine.delay engine churn_gap
             end)
           ops;
         (* Post-run audit (after the dust settles): every key must read
            back at least its committed floor. *)
         Engine.schedule engine ~at:(duration +. 1e-3) (fun () ->
             ignore
               (Engine.spawn engine (fun () ->
                    let v = Ctx.make cluster ~node:0 in
                    let crashed_homes =
                      List.concat_map (fun (_, _, hs) -> hs) !crash_log
                    in
                    Array.iteri
                      (fun k key ->
                        let floor =
                          if List.mem (k mod active0) crashed_homes then
                            synced.(k)
                          else acked.(k)
                        in
                        match
                          Fabric.retry_with_backoff fabric ~from:0 ~attempts:8
                            ~base_delay:2e-4 (fun () ->
                              unpack (P.owner_read v key))
                        with
                        | value -> if value < floor then incr lost
                        | exception
                            (Fabric.Node_down _ | Fabric.Rpc_timeout _) ->
                            incr unreadable)
                      keys)))));
  Cluster.run cluster;
  let snap = Metrics.snapshot (Cluster.metrics cluster) in
  let total name = Metrics.total snap name in
  let crash_list = List.rev_map (fun (v, t, _) -> (v, t)) !crash_log in
  let detection =
    match !ctrl with
    | None -> []
    | Some c ->
        List.filter_map
          (fun (v, ct) ->
            match List.assoc_opt v (Controller.deaths c) with
            | Some t -> Some (v, t -. ct)
            | None -> None)
          crash_list
  in
  let recovery =
    List.filter_map
      (fun (v, _) ->
        match Hashtbl.find_opt recovered v with
        | Some dt -> Some (v, dt)
        | None -> None)
      crash_list
  in
  {
    seed;
    nodes;
    total_ops = !total_ops;
    failed_ops = !failed_ops;
    lost_writes = !lost;
    unreadable_keys = !unreadable;
    joins = total "membership.joins";
    leaves = total "membership.leaves";
    handoff_commits = total "membership.handoff_commits";
    handoff_aborts = total "membership.handoff_aborts";
    final_epoch = (match !member with Some m -> Membership.epoch m | None -> 0);
    stale_epochs = total "fabric.stale_epochs";
    retries = total "fabric.retries";
    crashes = crash_list;
    detection;
    recovery;
    handoff_latency = List.rev !handoffs;
    unrecoverable =
      (match !repl_ref with
      | Some r -> Replication.unrecoverable_ranges r
      | None -> []);
    op_latency = Metrics.merged_histo snap "protocol.op_latency";
  }
