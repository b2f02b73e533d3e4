(* The repository benchmark.

   One executable runs one named workload (fig5-8n, kv-update, churn-64)
   for a fixed host-time budget and prints its end-to-end metrics; with
   [--trace 1] it instead runs the workload once more with span tracing
   and Dsm.t call tallies switched on, times each layer's public
   functions in isolation, and prints the per-layer metrics.  Either way
   it checks the simulated results against the pinned reference, the
   protocol audit, churn's durability ledger and same-seed determinism,
   and ends with one JSON line:

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   Everything is measured from outside the libraries: clusters and
   backends come from their public constructors, Dsm.t closures are
   wrapped here, and counters are read from the public registries.
   perfbench/METRICS.md is the metric catalogue. *)

module Cluster = Drust_machine.Cluster
module Ctx = Drust_machine.Ctx
module Engine = Drust_sim.Engine
module Fabric = Drust_net.Fabric
module Cache = Drust_memory.Cache
module Gaddr = Drust_memory.Gaddr
module Metrics = Drust_obs.Metrics
module Span = Drust_obs.Span
module Flight = Drust_obs.Flight
module Critical_path = Drust_obs.Critical_path
module Pqueue = Drust_util.Pqueue
module Json = Drust_util.Json
module Dsm = Drust_dsm.Dsm
module Protocol = Drust_core.Protocol
module Gam = Drust_gam.Gam
module Grappa = Drust_grappa.Grappa
module Appkit = Drust_appkit.Appkit
module Simplan = Drust_plan.Simplan
module Scenario = Drust_plan.Scenario
module Ycsb = Drust_workloads.Ycsb
module Fig5 = Drust_experiments.Fig5
module Testbed = Drust_experiments.Bench_setup

let host_now = Unix.gettimeofday

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sample array ([p] in [0,1]); 0 when empty. *)
let percentile a n p =
  if n = 0 then 0.0
  else begin
    let s = Array.sub a 0 n in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let geomean = function
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = Fig5_8n | Kv_update | Churn_64

let workloads =
  [ ("fig5-8n", Fig5_8n); ("kv-update", Kv_update); ("churn-64", Churn_64) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* YCSB A on the KV store: twice the extension suite's 24k ops, so one
   replay costs about a host second. *)
let kv_update_ops = 48_000
let churn_nodes = 64

(* The seed the pinned reference was recorded at; any other seed also
   replays this one once to check it. *)
let reference_seed = 42

type cell = {
  plan : Simplan.t;
  sim : Simplan.sim;
  app : Simplan.app option;  (* the Fig. 5 app, for RMR and speedup columns *)
}

let cell_of plan app =
  match plan.Simplan.spec with
  | Simplan.Sim sim -> { plan; sim; app }
  | Simplan.Suite _ -> invalid_arg "perfbench: suite plans do not run here"

let label c = c.plan.Simplan.name
let system c = c.sim.Simplan.system

(* fig5-8n: every Fig. 5 cell at 8 nodes (four apps x DRust/GAM/Grappa,
   plus SocialNet's original deployment) and the four 1-node original
   baselines the speedups divide by — the same plans [Fig5.run] executes
   at these node counts. *)
let fig5_cell ~seed ~nodes app system =
  cell_of
    (Simplan.app_plan
       ~pass_by_value:(system = Simplan.Original)
       ~params:(Testbed.testbed ~nodes ~seed ())
       app system)
    (Some app)

let cells ~seed = function
  | Fig5_8n ->
      List.concat_map
        (fun app ->
          let systems =
            Simplan.all_systems
            @ if app = Simplan.Socialnet_app then [ Simplan.Original ] else []
          in
          List.map (fig5_cell ~seed ~nodes:8 app) systems)
        Simplan.all_apps
      @ List.map
          (fun app -> fig5_cell ~seed ~nodes:1 app Simplan.Original)
          Simplan.all_apps
  | Kv_update ->
      [
        cell_of
          (Simplan.ycsb_plan
             ~params:(Testbed.testbed ~nodes:8 ~seed ())
             ~mix:Ycsb.A ~ops:kv_update_ops Simplan.Drust)
          None;
      ]
  | Churn_64 -> [ cell_of (Simplan.churn_plan ~seed ~nodes:churn_nodes ()) None ]

(* ------------------------------------------------------------------ *)
(* Traced-run instrumentation: Dsm.t call tallies                      *)

type tally = { mutable lat : float array; mutable n : int }

let new_tally () = { lat = Array.make 4096 0.0; n = 0 }

let add_sample t x =
  if t.n = Array.length t.lat then begin
    let a = Array.make (2 * t.n) 0.0 in
    Array.blit t.lat 0 a 0 t.n;
    t.lat <- a
  end;
  t.lat.(t.n) <- x;
  t.n <- t.n + 1

(* Count every call and time it in virtual time, from [Engine.now]
   before the call to after it.  Reading the clock is pure observation,
   so the wrapped backend simulates exactly what the bare one does. *)
let wrap t engine (b : Dsm.t) : Dsm.t =
  let timed f =
    let t0 = Engine.now engine in
    let r = f () in
    add_sample t (Engine.now engine -. t0);
    r
  in
  {
    b with
    alloc = (fun ctx ~size v -> timed (fun () -> b.alloc ctx ~size v));
    alloc_on =
      (fun ctx ~node ~size v -> timed (fun () -> b.alloc_on ctx ~node ~size v));
    read = (fun ctx h -> timed (fun () -> b.read ctx h));
    write = (fun ctx h v -> timed (fun () -> b.write ctx h v));
    update = (fun ctx h f -> timed (fun () -> b.update ctx h f));
    free = (fun ctx h -> timed (fun () -> b.free ctx h));
    read_part = (fun ctx h ~bytes -> timed (fun () -> b.read_part ctx h ~bytes));
    process = (fun ctx h ~cycles -> timed (fun () -> b.process ctx h ~cycles));
    process_update =
      (fun ctx h ~cycles f -> timed (fun () -> b.process_update ctx h ~cycles f));
    tie = (fun ctx ~parent ~child -> timed (fun () -> b.tie ctx ~parent ~child));
    mutex_create = (fun ctx -> timed (fun () -> b.mutex_create ctx));
    mutex_lock = (fun ctx m -> timed (fun () -> b.mutex_lock ctx m));
    mutex_unlock = (fun ctx m -> timed (fun () -> b.mutex_unlock ctx m));
  }

type tracer = {
  drust : tally;
  gam : tally;
  grappa : tally;
  path : float array;  (* virtual self time per Critical_path segment *)
}

let new_tracer () =
  {
    drust = new_tally ();
    gam = new_tally ();
    grappa = new_tally ();
    path = Array.make (List.length Critical_path.all_segments) 0.0;
  }

let tally_of tr = function
  | Simplan.Drust -> Some tr.drust
  | Simplan.Gam -> Some tr.gam
  | Simplan.Grappa -> Some tr.grappa
  | Simplan.Original -> None

(* The critical-path split over the spans still in the cluster's ring
   (its last 65,536 events): self time per segment, summed over paths. *)
let add_paths tr cluster =
  List.iter
    (fun (p : Critical_path.path) ->
      List.iteri
        (fun i (_, d) -> tr.path.(i) <- tr.path.(i) +. d)
        p.Critical_path.segments)
    (Critical_path.analyze (Span.events (Cluster.spans cluster)))

(* ------------------------------------------------------------------ *)
(* Running one cell                                                    *)

type outcome = {
  cell : cell;
  ops : float;  (* application ops; committed client ops for churn *)
  elapsed : float;  (* virtual seconds *)
  latency : Metrics.histo option;  (* merged protocol.op_latency *)
  snapshot : Metrics.snapshot;
  churn : Scenario.churn_result option;
  audit : string list;
  events : int;
  pushes : int;
  run_s : float;  (* host seconds simulating, set-up excluded *)
  minor_words : float;
  gam_counts : int * int * int;  (* read misses, write misses, invalidations *)
  grappa_delegations : int;
}

type built = {
  cluster : Cluster.t;
  backend : Dsm.t;
  gam : Gam.t option;
  grappa : Grappa.t option;
}

let validate c =
  match Simplan.validate c.plan with
  | Ok () -> ()
  | Error es -> failwith (label c ^ ": invalid plan: " ^ String.concat "; " es)

(* The construction [Simplan.execute] performs before the first
   simulated event, with the GAM and Grappa handles kept for their
   counters. *)
let build c =
  validate c;
  let cluster = Cluster.create (Simplan.params_of c.sim.Simplan.topology) in
  match c.sim.Simplan.system with
  | Simplan.Gam ->
      let g = Gam.create cluster in
      { cluster; backend = Gam.backend g; gam = Some g; grappa = None }
  | Simplan.Grappa ->
      let g = Grappa.create cluster in
      { cluster; backend = Grappa.backend g; gam = None; grappa = Some g }
  | s ->
      { cluster; backend = Simplan.make_backend s cluster; gam = None; grappa = None }

(* [Simplan.execute]'s own app dispatch, which it does not export: the
   benchmark needs the backend in hand to wrap it. *)
let run_body ~cluster ~backend = function
  | Simplan.App_run { app; affinity; pass_by_value } -> (
      match app with
      | Simplan.Dataframe_app ->
          Drust_dataframe.Dataframe.run ~cluster ~backend
            {
              Drust_dataframe.Dataframe.default_config with
              Drust_dataframe.Dataframe.use_tbox = affinity;
              use_spawn_to = affinity;
            }
      | Simplan.Socialnet_app ->
          Drust_socialnet.Socialnet.run ~cluster ~backend
            {
              Drust_socialnet.Socialnet.default_config with
              Drust_socialnet.Socialnet.pass_by_value;
            }
      | Simplan.Gemm_app ->
          Drust_gemm.Gemm.run ~cluster ~backend Drust_gemm.Gemm.default_config
      | Simplan.Kvstore_app ->
          Drust_kvstore.Kvstore.run ~cluster ~backend
            Drust_kvstore.Kvstore.default_config)
  | Simplan.Ycsb_run { mix; ops } ->
      Drust_kvstore.Kvstore.run ~cluster ~backend
        {
          Drust_kvstore.Kvstore.default_config with
          Drust_kvstore.Kvstore.workload = Some mix;
          ops;
        }
  | Simplan.Failover_kv _ | Simplan.Churn_kv _ ->
      invalid_arg "perfbench: scenario workloads run through Simplan.execute"

let finish ?tracer c cluster ~ops ~elapsed ~latency ~churn ~run_s ~minor_words
    ~gam ~grappa =
  let engine = Cluster.engine cluster in
  Option.iter (fun tr -> add_paths tr cluster) tracer;
  {
    cell = c;
    ops;
    elapsed;
    latency;
    snapshot = Metrics.snapshot (Cluster.metrics cluster);
    churn;
    audit = (if system c = Simplan.Drust then Protocol.audit cluster else []);
    events = Engine.dispatched engine;
    pushes = Engine.pushes engine;
    run_s;
    minor_words;
    gam_counts =
      (match gam with
      | Some g -> (Gam.read_misses g, Gam.write_misses g, Gam.invalidations_sent g)
      | None -> (0, 0, 0));
    grappa_delegations =
      (match grappa with Some g -> Grappa.delegations g | None -> 0);
  }

let run_app_cell ?tracer c =
  let b = build c in
  let backend =
    match Option.bind tracer (fun tr -> tally_of tr (system c)) with
    | Some t -> wrap t (Cluster.engine b.cluster) b.backend
    | None -> b.backend
  in
  if tracer <> None then Span.enable (Cluster.spans b.cluster);
  let h1 = host_now () in
  let w0 = Gc.minor_words () in
  let r = run_body ~cluster:b.cluster ~backend c.sim.Simplan.workload in
  let w1 = Gc.minor_words () in
  let h2 = host_now () in
  let snap = Metrics.snapshot (Cluster.metrics b.cluster) in
  finish ?tracer c b.cluster ~ops:r.Appkit.ops ~elapsed:r.Appkit.elapsed
    ~latency:(Metrics.merged_histo snap "protocol.op_latency")
    ~churn:None ~run_s:(h2 -. h1) ~minor_words:(w1 -. w0)
    ~gam:b.gam ~grappa:b.grappa

(* Scenario runs go through [Simplan.execute]; the creation hook hands
   back the cluster it builds (and switches its tracer on), and stamps
   the host time and allocation count at which cluster set-up ended. *)
let run_churn_cell ?tracer c =
  let captured = ref None in
  Cluster.set_create_hook
    (Some
       (fun cl ->
         if tracer <> None then Span.enable (Cluster.spans cl);
         captured := Some (cl, host_now (), Gc.minor_words ())));
  let out =
    Fun.protect
      ~finally:(fun () -> Cluster.set_create_hook None)
      (fun () -> Simplan.execute c.plan)
  in
  let w2 = Gc.minor_words () in
  let h2 = host_now () in
  let cluster, h1, w1 =
    match !captured with
    | Some x -> x
    | None -> failwith "perfbench: Simplan.execute built no cluster"
  in
  match out.Simplan.result with
  | Simplan.Churn_done r ->
      let duration =
        match c.sim.Simplan.workload with
        | Simplan.Churn_kv spec -> spec.Scenario.ch_duration
        | _ -> assert false
      in
      finish ?tracer c cluster ~ops:(float_of_int r.Scenario.total_ops)
        ~elapsed:duration ~latency:r.Scenario.op_latency ~churn:(Some r)
        ~run_s:(h2 -. h1) ~minor_words:(w2 -. w1) ~gam:None ~grappa:None
  | Simplan.App_done _ | Simplan.Failover_done _ ->
      failwith "perfbench: churn plan returned a non-churn outcome"

let run_cell ?tracer c =
  match c.sim.Simplan.workload with
  | Simplan.Churn_kv _ -> run_churn_cell ?tracer c
  | _ -> run_app_cell ?tracer c

(* Set-up alone, for the setup_s metric: everything [run_cell] does
   before the first simulated event, for every cell of the workload. *)
let setup_once cs =
  Gc.full_major ();
  let h0 = host_now () in
  List.iter
    (fun c ->
      match c.sim.Simplan.workload with
      | Simplan.Churn_kv _ ->
          validate c;
          ignore (Cluster.create (Simplan.params_of c.sim.Simplan.topology))
      | _ -> ignore (build c))
    cs;
  host_now () -. h0

(* Untimed rounds that grow the heap to its working size, then timed
   rounds before every measured replay, so the set-up samples span the
   same stretch of host time as the replays. *)
let setup_warmup = 10
let setup_per_replay = 5

(* ------------------------------------------------------------------ *)
(* Replays                                                             *)

type replay = {
  outcomes : outcome list;
  top_heap_words : int;  (* the process's heap high-water mark after it *)
  wall_s : float;
  words : float;
  gc_minor : int;
  gc_major : int;
  gc_promoted : float;
}

(* Each replay starts from a collected heap, so none inherits the
   previous one's major-GC debt. *)
let replay ?tracer cs =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let outcomes = List.map (run_cell ?tracer) cs in
  let g1 = Gc.quick_stat () in
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0.0 outcomes in
  {
    outcomes;
    top_heap_words = g1.Gc.top_heap_words;
    wall_s = sum (fun o -> o.run_s);
    words = sum (fun o -> o.minor_words);
    gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    gc_promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
  }

(* ------------------------------------------------------------------ *)
(* Simulated results: what the reference pins and the checks compare  *)

let fabric_counters =
  [
    "fabric.reads";
    "fabric.writes";
    "fabric.atomics";
    "fabric.rpcs";
    "fabric.bytes_out";
    "fabric.remote_ops";
    "fabric.retries";
    "fabric.timeouts";
    "fabric.drops";
    "fabric.stale_epochs";
  ]

let total o name = Metrics.total o.snapshot name

let quantile_us h q =
  match Option.bind h (fun h -> Metrics.quantile h q) with
  | Some v -> v *. 1e6
  | None -> 0.0

let num_i i = Json.Num (float_of_int i)

(* One cell's simulated result: ops, virtual elapsed time, latency
   percentiles, fabric totals, and churn's ledger. *)
let sim_json o =
  let q p =
    match Option.bind o.latency (fun h -> Metrics.quantile h p) with
    | Some v -> Json.Num v
    | None -> Json.Null
  in
  Json.Obj
    ([ ("ops", Json.Num o.ops); ("elapsed", Json.Num o.elapsed);
       ("p50", q 0.5); ("p99", q 0.99) ]
    @ List.map (fun n -> (n, num_i (total o n))) fabric_counters
    @
    match o.churn with
    | None -> []
    | Some r ->
        [
          ("failed_ops", num_i r.Scenario.failed_ops);
          ("lost_writes", num_i r.Scenario.lost_writes);
          ("unreadable_keys", num_i r.Scenario.unreadable_keys);
          ("handoff_commits", num_i r.Scenario.handoff_commits);
          ("handoff_aborts", num_i r.Scenario.handoff_aborts);
          ("final_epoch", num_i r.Scenario.final_epoch);
        ])

let results_json r =
  Json.Obj (List.map (fun o -> (label o.cell, sim_json o)) r.outcomes)

(* Every deterministic count a replay produces: the simulated results
   plus allocation, engine, and every registry counter. *)
let fingerprint r =
  ( Json.print (results_json r),
    r.words,
    List.map
      (fun o ->
        ( o.events,
          o.pushes,
          List.filter_map
            (fun s ->
              match s.Metrics.s_value with
              | Metrics.Count n -> Some (s.Metrics.s_name, s.Metrics.s_labels, n)
              | _ -> None)
            o.snapshot ))
      r.outcomes )

(* ------------------------------------------------------------------ *)
(* Correctness checks                                                  *)

(* A failed check names its cell ("*" for all of them); every op of a
   named cell counts as failed. *)
let fail chk cell why = (cell, why) :: chk

let check_outcomes chk r =
  List.fold_left
    (fun chk o ->
      let chk =
        match o.audit with
        | [] -> chk
        | v :: _ ->
            fail chk (label o.cell)
              (Printf.sprintf "Protocol.audit: %d violation(s), first: %s"
                 (List.length o.audit) v)
      in
      match o.churn with
      | Some c when c.Scenario.lost_writes > 0 || c.Scenario.unreadable_keys > 0
        ->
          fail chk (label o.cell)
            (Printf.sprintf "churn lost %d write(s), %d unreadable key(s)"
               c.Scenario.lost_writes c.Scenario.unreadable_keys)
      | _ -> chk)
    chk r.outcomes

let compare_results chk ~what ~expected r =
  List.fold_left
    (fun chk o ->
      let l = label o.cell in
      match Json.member l expected with
      | None -> fail chk l (what ^ ": no such cell")
      | Some e when compare e (sim_json o) = 0 -> chk
      | Some e ->
          let show = function
            | Some v -> String.trim (Json.print v)
            | None -> "nothing"
          in
          let got = sim_json o in
          let fields =
            match (e, got) with
            | Json.Obj a, Json.Obj b -> List.map fst a @ List.map fst b
            | _ -> []
          in
          let diffs =
            List.filter_map
              (fun k ->
                let x = Json.member k e and y = Json.member k got in
                if compare x y = 0 then None
                else Some (Printf.sprintf "%s expected %s got %s" k (show x) (show y)))
              (List.sort_uniq compare fields)
          in
          fail chk l (what ^ ": " ^ String.concat "; " diffs))
    chk r.outcomes

let check_determinism chk = function
  | [] | [ _ ] -> chk
  | r0 :: rest ->
      let f0 = fingerprint r0 in
      List.fold_left
        (fun chk r ->
          if compare (fingerprint r) f0 = 0 then chk
          else
            fail chk "*"
              "two replays with the same seed diverged (results, allocation, \
               events or counters)")
        chk rest

(* The pinned reference: perfbench/reference.json maps each workload to
   its cells' simulated results at [reference_seed]. *)
let load_reference path =
  match Json.load ~path with
  | j -> j
  | exception (Sys_error m | Json.Parse_error m) ->
      Printf.eprintf "perfbench: cannot read reference %s: %s\n" path m;
      exit 2

(* [warm] is the replay at [reference_seed] that precedes the measured
   phase (it also lets the heap and every lazy table settle before
   timing); when the workload seed is the reference seed, the measured
   replays are held to the reference too. *)
let check_reference chk ~reference wl ~seed ~warm runs =
  match Json.member (workload_name wl) reference with
  | None -> fail chk "*" "reference has no entry for this workload"
  | Some expected ->
      let against = if seed = reference_seed then warm :: runs else [ warm ] in
      List.fold_left
        (fun chk r ->
          compare_results (check_outcomes chk r) ~what:"reference" ~expected r)
        chk against

(* ------------------------------------------------------------------ *)
(* Model accuracy against the paper                                    *)

let throughput o = o.ops /. o.elapsed

let find_cell outcomes app sys nodes =
  List.find
    (fun o ->
      o.cell.app = Some app
      && system o.cell = sys
      && o.cell.sim.Simplan.topology.Simplan.nodes = nodes)
    outcomes

let paper_err_pct outcomes refs =
  let errs =
    List.map
      (fun (app, sys, paper) ->
        let speedup =
          throughput (find_cell outcomes app sys 8)
          /. throughput (find_cell outcomes app Simplan.Original 1)
        in
        Float.abs ((speedup /. paper) -. 1.0))
      refs
  in
  100.0 *. List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)

(* fig5-8n scores its own cells against all eleven quoted 8-node
   speedups.  kv-update and churn-64 run no Fig. 5 cell, so they score
   the one they share the KV Store app with — DRust's 8-node speedup —
   run after the measured phase at the reference seed: that cell's
   speedup swings by a third from seed to seed, so only a fixed seed
   makes the figure move with the model rather than with the inputs. *)
let model_err wl r =
  match wl with
  | Fig5_8n -> paper_err_pct r.outcomes Fig5.paper_8node
  | Kv_update | Churn_64 ->
      paper_err_pct
        (List.map run_cell
           [
             fig5_cell ~seed:reference_seed ~nodes:8 Simplan.Kvstore_app
               Simplan.Drust;
             fig5_cell ~seed:reference_seed ~nodes:1 Simplan.Kvstore_app
               Simplan.Original;
           ])
        (List.filter
           (fun (a, s, _) -> a = Simplan.Kvstore_app && s = Simplan.Drust)
           Fig5.paper_8node)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)

let merged_latency r =
  List.fold_left
    (fun acc o ->
      match (acc, o.latency) with
      | None, h | h, None -> h
      | Some a, Some b -> Some (Metrics.merge_histos a b))
    None r.outcomes

let sim_ops_per_s wl r =
  match wl with
  | Fig5_8n ->
      geomean
        (List.filter_map
           (fun o ->
             if system o.cell = Simplan.Drust then Some (throughput o) else None)
           r.outcomes)
  | Kv_update | Churn_64 ->
      List.fold_left (fun acc o -> acc +. o.ops) 0.0 r.outcomes
      /. List.fold_left (fun acc o -> acc +. o.elapsed) 0.0 r.outcomes

(* The heap high-water mark after the first measured replay: set-up,
   the warm-up replay and one replay at the workload seed — a fixed
   sequence, unlike the end of a time-budgeted run. *)
let peak_heap_mb r =
  float_of_int (r.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Ops attempted per replay.  Churn clients also count the ops they
   abandoned once a crashed node outlived their retry budget: the
   scenario provokes those on purpose, so they are reported (the
   per-layer churn.abandoned_ops) but only a failed correctness check
   counts a cell's ops as failed. *)
let cell_attempts o =
  match o.churn with
  | Some c -> c.Scenario.total_ops + c.Scenario.failed_ops
  | None -> int_of_float o.ops

let abandoned o = match o.churn with Some c -> c.Scenario.failed_ops | None -> 0

(* ------------------------------------------------------------------ *)
(* Per-layer host cost: each layer's public function in isolation      *)

type micro = {
  ns : float;  (* host ns per call, median of batches *)
  events : float;  (* engine events dispatched per call *)
  verbs : float;  (* fabric verbs issued per call *)
  lookups : float;  (* cache lookups per call *)
}

let batches = 5

(* [prepare n] builds the state untimed and returns the thunk performing
   [n] calls plus a reader of (events, verbs, lookups) afterwards. *)
let measure_micro ~n prepare =
  let runs =
    List.init batches (fun _ ->
        let go, counts = prepare n in
        let t0 = host_now () in
        go ();
        let dt = host_now () -. t0 in
        (dt *. 1e9 /. float_of_int n, counts ()))
  in
  let e, v, l = snd (List.hd runs) in
  let per x = float_of_int x /. float_of_int n in
  { ns = median (List.map fst runs); events = per e; verbs = per v; lookups = per l }

let plain ~n prepare =
  measure_micro ~n (fun n -> (prepare n, fun () -> (0, 0, 0)))

let micro_cluster () = Cluster.create (Testbed.testbed ~nodes:2 ())

(* Counts of a micro cluster, read after its timed loop. *)
let cluster_counts c ~base () =
  let s = Metrics.snapshot (Cluster.metrics c) in
  let t n = Metrics.total s n in
  let e0, v0, l0 = base in
  ( Engine.dispatched (Cluster.engine c) - e0,
    t "fabric.reads" + t "fabric.writes" + t "fabric.atomics" + t "fabric.rpcs"
    - v0,
    t "cache.hits" + t "cache.misses" - l0 )

(* Run [setup] to completion in its own process, then return the timed
   thunk that runs [body] as a second process. *)
let sim_micro c ~setup ~body =
  let e = Cluster.engine c in
  let st = ref None in
  ignore (Engine.spawn e (fun () -> st := Some (setup ())));
  Cluster.run c;
  let base = cluster_counts c ~base:(0, 0, 0) () in
  let st = Option.get !st in
  ( (fun () ->
      ignore (Engine.spawn e (fun () -> body st));
      Cluster.run c),
    cluster_counts c ~base )

let pqueue_push_pop n =
  let q = Pqueue.create () in
  for i = 0 to 1023 do
    Pqueue.push q ~time:(float_of_int i) i
  done;
  fun () ->
    for i = 1 to n do
      ignore (Pqueue.pop_exn q);
      Pqueue.push q ~time:(Pqueue.last_time q +. 1024.0) i
    done

let engine_schedule_step n =
  let e = Engine.create () in
  let noop () = () in
  fun () ->
    for _ = 1 to n do
      Engine.schedule e ~at:(Engine.now e +. 1e-6) noop;
      ignore (Engine.step e)
    done

let engine_delay n =
  let e = Engine.create () in
  ( (fun () ->
      ignore
        (Engine.spawn e (fun () ->
             for _ = 1 to n do
               Engine.delay e 1e-6
             done));
      Engine.run e),
    fun () -> (Engine.dispatched e, 0, 0) )

let fabric_read n =
  let c = micro_cluster () in
  sim_micro c
    ~setup:(fun () -> ())
    ~body:(fun () ->
      for _ = 1 to n do
        Fabric.rdma_read (Cluster.fabric c) ~from:0 ~target:1 ~bytes:64
      done)

let cache_lookup ~hit n =
  let cache = Cache.create ~node:0 () in
  let g = Gaddr.make ~node:1 ~offset:4096 in
  ignore (Cache.insert cache g ~size:64 Appkit.blob);
  let probe = if hit then g else Gaddr.make ~node:1 ~offset:8192 in
  fun () ->
    for _ = 1 to n do
      ignore (Cache.lookup cache probe)
    done

(* Protocol paths on a 2-node cluster, [n] distinct 64-byte objects so
   every call takes the named path: the first remote read of an object
   fetches it, the second hits the cache; a local write with U-bit
   elision off bumps the colour; a first remote write moves. *)
let protocol_micro ~home ~warm ~no_ubit op n =
  let c = micro_cluster () in
  if no_ubit then Protocol.set_no_ubit c true;
  let ctx0 = Ctx.make c ~node:0 and ctxh = Ctx.make c ~node:home in
  sim_micro c
    ~setup:(fun () ->
      let owners =
        Array.init n (fun _ -> Protocol.create_on ctxh ~node:home ~size:64 Appkit.blob)
      in
      if warm then Array.iter (op ctx0) owners;
      owners)
    ~body:(Array.iter (op ctx0))

let read ctx o =
  let r = Protocol.borrow_imm ctx o in
  ignore (Protocol.imm_deref ctx r);
  Protocol.drop_imm ctx r

let write ctx o =
  let m = Protocol.borrow_mut ctx o in
  Protocol.mut_write ctx m Appkit.blob;
  Protocol.drop_mut ctx m

(* One baseline read per call of a remote object: GAM objects fill a
   whole directory block, so each first read is a miss; Grappa
   delegates every read. *)
let baseline_micro ~make n =
  let c = micro_cluster () in
  let b : Dsm.t = make c in
  let ctx0 = Ctx.make c ~node:0 and ctx1 = Ctx.make c ~node:1 in
  sim_micro c
    ~setup:(fun () ->
      Array.init n (fun _ -> b.Dsm.alloc_on ctx1 ~node:1 ~size:512 Appkit.blob))
    ~body:(Array.iter (fun h -> ignore (b.Dsm.read ctx0 h)))

let metrics_incr n =
  let ctr = Metrics.counter (Metrics.create ()) "perfbench.incr" in
  fun () ->
    for _ = 1 to n do
      Metrics.incr ctr
    done

let flight_record n =
  let f = Flight.create ~nodes:1 () in
  fun () ->
    for i = 1 to n do
      Flight.record f ~node:0 ~time:0.0 ~kind:Flight.k_fab_read ~a:i ~b:0 ~c:0
        ~d:0
    done

type micros = {
  pqueue : micro;
  sched : micro;
  delay : micro;
  fab_read : micro;
  lookup_hit : micro;
  lookup_miss : micro;
  fetch : micro;
  cached : micro;
  bump : micro;
  move : micro;
  gam_read : micro;
  grappa_read : micro;
  incr : micro;
  record : micro;
}

let run_micros () =
  {
    pqueue = plain ~n:200_000 pqueue_push_pop;
    sched = plain ~n:200_000 engine_schedule_step;
    delay = measure_micro ~n:100_000 engine_delay;
    fab_read = measure_micro ~n:20_000 fabric_read;
    lookup_hit = plain ~n:500_000 (cache_lookup ~hit:true);
    lookup_miss = plain ~n:500_000 (cache_lookup ~hit:false);
    fetch =
      measure_micro ~n:5_000
        (protocol_micro ~home:1 ~warm:false ~no_ubit:false read);
    cached =
      measure_micro ~n:5_000 (protocol_micro ~home:1 ~warm:true ~no_ubit:false read);
    bump =
      measure_micro ~n:5_000 (protocol_micro ~home:0 ~warm:false ~no_ubit:true write);
    move =
      measure_micro ~n:5_000
        (protocol_micro ~home:1 ~warm:false ~no_ubit:false write);
    gam_read =
      measure_micro ~n:3_000
        (baseline_micro ~make:(fun c -> Gam.backend (Gam.create c)));
    grappa_read =
      measure_micro ~n:3_000
        (baseline_micro ~make:(fun c -> Grappa.backend (Grappa.create c)));
    incr = plain ~n:1_000_000 metrics_incr;
    record = plain ~n:1_000_000 flight_record;
  }

(* Host cost a call adds on top of the lower layers it drives: its
   ns/call minus its engine events, fabric verbs and cache lookups at
   their own measured prices. *)
let self_ns m ~step ~verb ~lookup =
  Float.max 0.0
    (m.ns -. (m.events *. step) -. (m.verbs *. verb) -. (m.lookups *. lookup))

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-36s %20.6f %s\n" name v unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_num (if Float.is_finite v then v else 0.0))
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

(* Replays at the workload seed until the budget is spent: at least
   [min_replays], stopping where the next replay would overrun the
   budget by more than half its expected length.  Returns the replays
   and the set-up samples taken between them. *)
let min_replays = 3

let measured_replays ~seconds cs =
  let t0 = host_now () in
  let rec go n acc setups =
    let setups = List.init setup_per_replay (fun _ -> setup_once cs) @ setups in
    let acc = replay cs :: acc in
    let n = n + 1 in
    let spent = host_now () -. t0 in
    if n < min_replays || spent +. (spent /. float_of_int n /. 2.0) < seconds
    then go n acc setups
    else (List.rev acc, setups)
  in
  go 0 [] []

let per_layer ~wl ~seed ~runs ~chk =
  let r0 = List.hd runs in
  let wall = median (List.map (fun r -> r.wall_s) runs) in
  let tr = new_tracer () in
  let traced = replay ~tracer:tr (cells ~seed wl) in
  let chk =
    compare_results chk ~what:"traced run" ~expected:(results_json r0) traced
  in
  (* The bypass predictions: no baseline call outside fig5-8n, no
     membership activity outside churn-64. *)
  let chk =
    if wl <> Fig5_8n && tr.gam.n + tr.grappa.n > 0 then
      fail chk "*" "a GAM or Grappa call on a DRust-only workload"
    else chk
  in
  let chk =
    if
      wl <> Churn_64
      && List.exists
           (fun o ->
             List.exists
               (fun s ->
                 String.starts_with ~prefix:"membership." s.Metrics.s_name
                 && match s.Metrics.s_value with
                    | Metrics.Count n -> n > 0
                    | Metrics.Level _ | Metrics.Histo _ -> false)
               o.snapshot)
           traced.outcomes
    then fail chk "*" "membership activity outside churn-64"
    else chk
  in
  let m = run_micros () in
  let sum f = List.fold_left (fun acc o -> acc +. float_of_int (f o)) 0.0 r0.outcomes in
  let t name = sum (fun o -> total o name) in
  let events = sum (fun o -> o.events) in
  let pushes = sum (fun o -> o.pushes) in
  let op kind =
    List.fold_left
      (fun acc o ->
        match Metrics.find o.snapshot ~labels:[ ("op", kind) ] "protocol.op_latency" with
        | Some (Metrics.Histo h) -> acc +. float_of_int h.Metrics.h_count
        | _ -> acc)
      0.0 r0.outcomes
  in
  let vlat tl p = percentile tl.lat tl.n p *. 1e6 in
  let gam_rm, gam_wm, gam_inv =
    List.fold_left
      (fun (a, b, c) o ->
        let x, y, z = o.gam_counts in
        (a + x, b + y, c + z))
      (0, 0, 0) traced.outcomes
  in
  let delegations =
    List.fold_left (fun acc o -> acc + o.grappa_delegations) 0 traced.outcomes
  in
  (* RMRs: remote fabric verbs per application op, per (system, app). *)
  let rmr sys app =
    match
      List.filter
        (fun o -> system o.cell = sys && (app = None || o.cell.app = app))
        r0.outcomes
    with
    | [] -> 0.0
    | os ->
        let remote = List.fold_left (fun acc o -> acc + total o "fabric.remote_ops") 0 os in
        let ops = List.fold_left (fun acc o -> acc +. o.ops) 0.0 os in
        float_of_int remote /. ops
  in
  let rmr_geo sys =
    let per_app =
      List.filter_map
        (fun app ->
          let v = rmr sys (Some app) in
          if v > 0.0 then Some v else None)
        Simplan.all_apps
    in
    match wl with Fig5_8n -> geomean per_app | _ -> rmr sys None
  in
  let churn_p99 f =
    match List.find_map (fun o -> o.churn) r0.outcomes with
    | None -> 0.0
    | Some c ->
        let xs = Array.of_list (f c) in
        percentile xs (Array.length xs) 0.99 *. 1e3
  in
  let hits = t "cache.hits" and misses = t "cache.misses" in
  let step = m.sched.ns in
  let verb = self_ns m.fab_read ~step ~verb:0.0 ~lookup:0.0 in
  let lookup = (m.lookup_hit.ns +. m.lookup_miss.ns) /. 2.0 in
  let self x = self_ns x ~step ~verb ~lookup in
  let verbs = t "fabric.reads" +. t "fabric.writes" +. t "fabric.atomics" +. t "fabric.rpcs" in
  let engine_s = events *. step *. 1e-9 in
  let fabric_s = verbs *. verb *. 1e-9 in
  let cache_s = ((hits *. m.lookup_hit.ns) +. (misses *. m.lookup_miss.ns)) *. 1e-9 in
  let protocol_s =
    ((op "read_fetch" *. self m.fetch)
    +. (op "read_cached" *. self m.cached)
    +. (op "write_bump" *. self m.bump)
    +. (op "write_move" *. self m.move))
    *. 1e-9
  in
  let baselines_s =
    ((float_of_int tr.gam.n *. self m.gam_read)
    +. (float_of_int tr.grappa.n *. self m.grappa_read))
    *. 1e-9
  in
  let obs_s = t "flight.events" *. (m.record.ns +. m.incr.ns) *. 1e-9 in
  let seg s =
    let rec idx i = function
      | [] -> 0.0
      | x :: rest -> if x = s then tr.path.(i) else idx (i + 1) rest
    in
    idx 0 Critical_path.all_segments
  in
  let cnt = "count" in
  let rmr_unit = "verbs/op" in
  let metrics =
    [
      ("engine.events", events, cnt);
      ("engine.queue_pushes", pushes, cnt);
      ("engine.events_per_host_s", events /. wall, "1/s");
      ("engine.minor_words_per_event", r0.words /. events, "words/event");
      ("engine.schedule_step_ns", m.sched.ns, "ns");
      ("engine.delay_ns", m.delay.ns, "ns");
      ("pqueue.push_pop_ns", m.pqueue.ns, "ns");
      ("gc.minor_collections", float_of_int r0.gc_minor, cnt);
      ("gc.major_collections", float_of_int r0.gc_major, cnt);
      ("gc.promoted_mwords", r0.gc_promoted /. 1e6, "Mwords");
      ("engine.modelled_host_s", engine_s, "s");
      ("dsm.gam.calls", float_of_int tr.gam.n, cnt);
      ("dsm.gam.vlat_p50_us", vlat tr.gam 0.5, "us");
      ("dsm.gam.vlat_p99_us", vlat tr.gam 0.99, "us");
      ("dsm.grappa.calls", float_of_int tr.grappa.n, cnt);
      ("dsm.grappa.vlat_p50_us", vlat tr.grappa 0.5, "us");
      ("dsm.grappa.vlat_p99_us", vlat tr.grappa 0.99, "us");
      ("gam.read_misses", float_of_int gam_rm, cnt);
      ("gam.write_misses", float_of_int gam_wm, cnt);
      ("gam.invalidations", float_of_int gam_inv, cnt);
      ("grappa.delegations", float_of_int delegations, cnt);
      ("gam.read_ns", m.gam_read.ns, "ns");
      ("grappa.read_ns", m.grappa_read.ns, "ns");
      ("baselines.modelled_host_s", baselines_s, "s");
      ("protocol.op.read_local", op "read_local", cnt);
      ("protocol.op.read_cached", op "read_cached", cnt);
      ("protocol.op.read_fetch", op "read_fetch", cnt);
      ("protocol.op.read_remote", op "read_remote", cnt);
      ("protocol.fetches", t "protocol.fetches", cnt);
      ("cache.hits", hits, cnt);
      ("cache.misses", misses, cnt);
      ("cache.hit_ratio", (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0), "ratio");
      ("cache.evictions", t "cache.evictions", cnt);
      ("protocol.read_fetch_ns", m.fetch.ns, "ns");
      ("protocol.read_cached_ns", m.cached.ns, "ns");
      ("cache.lookup_hit_ns", m.lookup_hit.ns, "ns");
      ("cache.lookup_miss_ns", m.lookup_miss.ns, "ns");
      ("dsm.drust.calls", float_of_int tr.drust.n, cnt);
      ("dsm.drust.vlat_p50_us", vlat tr.drust 0.5, "us");
      ("dsm.drust.vlat_p99_us", vlat tr.drust 0.99, "us");
      ("cache.modelled_host_s", cache_s, "s");
      ("protocol.op.write_inplace", op "write_inplace", cnt);
      ("protocol.op.write_bump", op "write_bump", cnt);
      ("protocol.op.write_move", op "write_move", cnt);
      ("protocol.op.transfer", op "transfer", cnt);
      ("protocol.op.drop", op "drop", cnt);
      ("protocol.moves", t "protocol.moves", cnt);
      ("protocol.color_bumps", t "protocol.color_bumps", cnt);
      ("protocol.write_bump_ns", m.bump.ns, "ns");
      ("protocol.write_move_ns", m.move.ns, "ns");
      ("protocol.modelled_host_s", protocol_s, "s");
    ]
    @ List.map (fun n -> (n, t n, cnt)) fabric_counters
    @ [
        ("fabric.read_ns", m.fab_read.ns, "ns");
        ("fabric.rmr_per_op.drust", rmr_geo Simplan.Drust, rmr_unit);
        ("fabric.rmr_per_op.gam", rmr_geo Simplan.Gam, rmr_unit);
        ("fabric.rmr_per_op.grappa", rmr_geo Simplan.Grappa, rmr_unit);
      ]
    @ List.concat_map
        (fun (sys, sys_slug) ->
          List.map
            (fun (app, app_slug) ->
              ( Printf.sprintf "fabric.rmr_per_op.%s.%s" sys_slug app_slug,
                (match wl with Fig5_8n -> rmr sys (Some app) | _ -> 0.0),
                rmr_unit ))
            [
              (Simplan.Dataframe_app, "dataframe");
              (Simplan.Socialnet_app, "socialnet");
              (Simplan.Gemm_app, "gemm");
              (Simplan.Kvstore_app, "kvstore");
            ])
        [ (Simplan.Drust, "drust"); (Simplan.Gam, "gam"); (Simplan.Grappa, "grappa") ]
    @ [
        ("fabric.modelled_host_s", fabric_s, "s");
        ("membership.handoff_commits", t "membership.handoff_commits", cnt);
        ("membership.handoff_aborts", t "membership.handoff_aborts", cnt);
        ("membership.view_changes", t "membership.view_changes", cnt);
        ("controller.failovers", t "controller.failovers", cnt);
        ("controller.probes", t "controller.probes", cnt);
        ("churn.detection_p99_ms", churn_p99 (fun c -> List.map snd c.Scenario.detection), "ms");
        ("churn.recovery_p99_ms", churn_p99 (fun c -> List.map snd c.Scenario.recovery), "ms");
        ("churn.handoff_p99_ms", churn_p99 (fun c -> c.Scenario.handoff_latency), "ms");
        ("churn.abandoned_ops", float_of_int (List.fold_left (fun acc o -> acc + abandoned o) 0 r0.outcomes), cnt);
        ("flight.events", t "flight.events", cnt);
        ("obs.metrics_incr_ns", m.incr.ns, "ns");
        ("obs.flight_record_ns", m.record.ns, "ns");
        ("trace.overhead_ratio", traced.wall_s /. wall, "ratio");
        ("obs.modelled_host_s", obs_s, "s");
        ("path.queue_s", seg Critical_path.Queue, "s");
        ("path.wire_s", seg Critical_path.Wire, "s");
        ("path.serialize_s", seg Critical_path.Serialize, "s");
        ("path.protocol_s", seg Critical_path.Protocol, "s");
        ("path.compute_s", seg Critical_path.Compute, "s");
        ( "host.unmodelled_s",
          wall -. (engine_s +. fabric_s +. cache_s +. protocol_s +. baselines_s +. obs_s),
          "s" );
      ]
  in
  (metrics, chk)

let end_to_end ~wl ~setup ~runs =
  let r0 = List.hd runs in
  let lat = merged_latency r0 in
  [
    ("wall_s", median (List.map (fun r -> r.wall_s) runs), "s");
    ("setup_s", setup, "s");
    ("alloc_mwords", r0.words /. 1e6, "Mwords");
    ("peak_heap_mb", peak_heap_mb r0, "MiB");
    ("sim_ops_per_s", sim_ops_per_s wl r0, "ops/s");
    ("sim_p50_us", quantile_us lat 0.5, "us");
    ("sim_p99_us", quantile_us lat 0.99, "us");
    ("fig5_paper_err_pct", model_err wl r0, "%");
  ]

let write_reference path =
  let entries =
    List.map
      (fun (name, wl) ->
        Printf.eprintf "perfbench: recording %s at seed %d\n%!" name reference_seed;
        (name, results_json (replay (cells ~seed:reference_seed wl))))
      workloads
  in
  Json.save ~path (Json.Obj entries)

let () =
  let workload = ref "" and seed = ref reference_seed and seconds = ref 10.0 in
  let trace = ref 0 and reference = ref "perfbench/reference.json" in
  let write_ref = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " fig5-8n | kv-update | churn-64");
      ("--seed", Arg.Set_int seed, " workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, " measured-phase host budget");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--reference", Arg.Set_string reference, " pinned results file");
      ( "--write-reference",
        Arg.Set write_ref,
        " re-record the pinned results at seed 42 and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  if !write_ref then begin
    write_reference !reference;
    exit 0
  end;
  let wl =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (fig5-8n | kv-update | churn-64)\n"
          !workload;
        exit 2
  in
  let reference = load_reference !reference in
  let seed = !seed in
  let cs = cells ~seed wl in
  Printf.printf "perfbench %s seed %d trace %d\n%!" (workload_name wl) seed !trace;
  for _ = 1 to setup_warmup do
    ignore (setup_once cs)
  done;
  let warm = replay (cells ~seed:reference_seed wl) in
  let runs, setups = measured_replays ~seconds:!seconds cs in
  let chk = check_determinism [] runs in
  let chk = List.fold_left check_outcomes chk runs in
  let chk = check_reference chk ~reference wl ~seed ~warm runs in
  let metrics, chk =
    if !trace = 0 then (end_to_end ~wl ~setup:(median setups) ~runs, chk)
    else per_layer ~wl ~seed ~runs ~chk
  in
  let bad = List.map fst chk in
  List.iter
    (fun (cell, why) -> Printf.printf "  CHECK FAILED [%s] %s\n" cell why)
    (List.rev chk);
  let attempted, failed =
    List.fold_left
      (fun (a, f) r ->
        List.fold_left
          (fun (a, f) o ->
            let n = cell_attempts o in
            let failed =
              if List.mem "*" bad || List.mem (label o.cell) bad then n else 0
            in
            (a + n, f + failed))
          (a, f) r.outcomes)
      (0, 0) runs
  in
  Printf.printf "  %s: %d replay(s) [%s s], %d ops attempted, %d failed\n"
    (workload_name wl) (List.length runs)
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall_s) runs))
    attempted failed;
  let correct = chk = [] in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
