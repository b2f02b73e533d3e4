module Params = Drust_machine.Params
module Cluster = Drust_machine.Cluster
module Fault = Drust_sim.Fault
module Metrics = Drust_obs.Metrics
module Flight = Drust_obs.Flight
module Json = Drust_util.Json
module Rng = Drust_util.Rng
module Ycsb = Drust_workloads.Ycsb
module Dsan = Drust_check.Dsan

type system = Drust | Gam | Grappa | Original
type app = Dataframe_app | Socialnet_app | Gemm_app | Kvstore_app

let system_name = function
  | Drust -> "DRust"
  | Gam -> "GAM"
  | Grappa -> "Grappa"
  | Original -> "Original"

let all_systems = [ Drust; Gam; Grappa ]

let systems =
  [ ("drust", Drust); ("gam", Gam); ("grappa", Grappa); ("original", Original) ]

let app_name = function
  | Dataframe_app -> "DataFrame"
  | Socialnet_app -> "SocialNet"
  | Gemm_app -> "GEMM"
  | Kvstore_app -> "KV Store"

let all_apps = [ Dataframe_app; Socialnet_app; Gemm_app; Kvstore_app ]

let apps =
  [ ("dataframe", Dataframe_app); ("socialnet", Socialnet_app);
    ("gemm", Gemm_app); ("kvstore", Kvstore_app) ]

let slug table x = fst (List.find (fun (_, y) -> y = x) table)

let make_backend system cluster =
  match system with
  | Drust -> Drust_dsm.Drust_backend.create cluster
  | Gam -> Drust_gam.Gam.backend (Drust_gam.Gam.create cluster)
  | Grappa -> Drust_grappa.Grappa.backend (Drust_grappa.Grappa.create cluster)
  | Original -> Drust_dsm.Local_backend.create cluster

type topology = {
  nodes : int;
  cores_per_node : int;
  mem_per_node : int;
  ghz : float;
  seed : int;
}

let params_of (t : topology) =
  {
    Params.default with
    Params.nodes = t.nodes;
    cores_per_node = t.cores_per_node;
    mem_per_node = t.mem_per_node;
    ghz = t.ghz;
    seed = t.seed;
  }

let topology_of_params (p : Params.t) =
  {
    nodes = p.Params.nodes;
    cores_per_node = p.Params.cores_per_node;
    mem_per_node = p.Params.mem_per_node;
    ghz = p.Params.ghz;
    seed = p.Params.seed;
  }

type fault_event =
  | Crash of { node : int; at : float }
  | Partition of { group : int list; at : float; heal_at : float }
  | Degrade of {
      from_node : int;
      target : int;
      drop : float;
      extra_latency : float;
      jitter : float;
    }

type faults = { fault_seed : int; events : fault_event list }

type workload =
  | App_run of { app : app; affinity : bool; pass_by_value : bool }
  | Ycsb_run of { mix : Ycsb.workload; ops : int }
  | Failover_kv of Scenario.failover_spec
  | Churn_kv of Scenario.churn_spec

type sim = {
  topology : topology;
  system : system;
  workload : workload;
  faults : faults;
}

type suite = {
  su_experiments : string list;
  su_node_counts : int list option;
  su_churn_nodes : int option;
  su_seed : int;
}

type spec = Sim of sim | Suite of suite
type t = { name : string; spec : spec; expect : string }

let bench_schema = "drust-bench-summary/v3"
let plan_schema = "drust-simplan/v1"

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)

let no_faults = { fault_seed = 0; events = [] }

let app_plan ?name ?(affinity = false) ?(pass_by_value = false) ~params app
    system =
  let topology = topology_of_params params in
  let name =
    match name with
    | Some n -> n
    | None ->
        Printf.sprintf "%s-%s-%dn" (slug apps app) (slug systems system)
          topology.nodes
  in
  {
    name;
    expect = bench_schema;
    spec =
      Sim
        {
          topology;
          system;
          workload = App_run { app; affinity; pass_by_value };
          faults = no_faults;
        };
  }

(* The mix letter alone: workload_name's parenthetical would not be
   usable as a file stem. *)
let mix_slug mix =
  match Ycsb.workload_name mix with
  | "" -> "x"
  | n -> String.lowercase_ascii (String.make 1 n.[0])

let ycsb_plan ?name ~params ~mix ~ops system =
  let topology = topology_of_params params in
  let name =
    match name with
    | Some n -> n
    | None ->
        Printf.sprintf "ycsb-%s-%s-%dn" (mix_slug mix) (slug systems system)
          topology.nodes
  in
  {
    name;
    expect = bench_schema;
    spec =
      Sim
        { topology; system; workload = Ycsb_run { mix; ops }; faults = no_faults };
  }

(* The chaos scenarios run on deliberately small nodes so the fault
   machinery, not the memory system, dominates. *)
let small_topology ~nodes ~seed =
  {
    nodes;
    cores_per_node = 4;
    mem_per_node = Drust_util.Units.mib 64;
    ghz = Params.default.Params.ghz;
    seed;
  }

let failover_plan ?name ?(spec = Scenario.default_failover) ~seed () =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "failover-%dn-seed%d" spec.Scenario.fo_nodes seed
  in
  {
    name;
    expect = bench_schema;
    spec =
      Sim
        {
          topology = small_topology ~nodes:spec.Scenario.fo_nodes ~seed;
          system = Drust;
          workload = Failover_kv spec;
          faults =
            {
              fault_seed = seed + 17;
              events =
                [
                  Crash
                    {
                      node = spec.Scenario.fo_victim;
                      at = spec.Scenario.fo_crash_t;
                    };
                ];
            };
        };
  }

let churn_plan ?name ~seed ~nodes () =
  let spec = Scenario.churn_spec_of ~nodes in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "churn-%dn-seed%d" nodes seed
  in
  {
    name;
    expect = bench_schema;
    spec =
      Sim
        {
          topology = small_topology ~nodes ~seed;
          system = Drust;
          workload = Churn_kv spec;
          faults =
            {
              fault_seed = seed + 17;
              events =
                [
                  Crash
                    {
                      node = spec.Scenario.ch_victim;
                      at = spec.Scenario.ch_crash_t;
                    };
                ];
            };
        };
  }

let suite_plan ?node_counts ?churn_nodes ?(seed = 42) ~name experiments =
  {
    name;
    expect = bench_schema;
    spec =
      Suite
        {
          su_experiments = experiments;
          su_node_counts = node_counts;
          su_churn_nodes = churn_nodes;
          su_seed = seed;
        };
  }

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

let topology_codec =
  Json.(
    record (fun nodes cores_per_node mem_per_node ghz seed ->
        { nodes; cores_per_node; mem_per_node; ghz; seed })
    |> field "nodes" int (fun t -> t.nodes)
    |> field "cores_per_node" int (fun t -> t.cores_per_node)
    |> field "mem_per_node" int (fun t -> t.mem_per_node)
    |> field "ghz" number (fun t -> t.ghz)
    |> field "seed" int (fun t -> t.seed)
    |> seal)

let event_codec =
  Json.(
    variant "fault event kind"
      [
        case "crash"
          (record (fun node at -> (node, at))
          |> field "node" int fst
          |> field "at" number snd)
          (fun (node, at) -> Crash { node; at })
          (function Crash { node; at } -> Some (node, at) | _ -> None);
        case "partition"
          (record (fun group at heal_at -> (group, at, heal_at))
          |> field "group" (list int) (fun (g, _, _) -> g)
          |> field "at" number (fun (_, a, _) -> a)
          |> field "heal_at" number (fun (_, _, h) -> h))
          (fun (group, at, heal_at) -> Partition { group; at; heal_at })
          (function
            | Partition { group; at; heal_at } -> Some (group, at, heal_at)
            | _ -> None);
        case "degrade"
          (record (fun from_node target drop extra_latency jitter ->
               (from_node, target, drop, extra_latency, jitter))
          |> field "from" int (fun (f, _, _, _, _) -> f)
          |> field "target" int (fun (_, t, _, _, _) -> t)
          |> field "drop" number (fun (_, _, d, _, _) -> d)
          |> field "extra_latency" number (fun (_, _, _, l, _) -> l)
          |> field "jitter" number (fun (_, _, _, _, j) -> j))
          (fun (from_node, target, drop, extra_latency, jitter) ->
            Degrade { from_node; target; drop; extra_latency; jitter })
          (function
            | Degrade { from_node; target; drop; extra_latency; jitter } ->
                Some (from_node, target, drop, extra_latency, jitter)
            | _ -> None);
      ])

let mixes = List.map (fun w -> (Ycsb.workload_name w, w)) Ycsb.all_workloads

let workload_codec =
  Json.(
    variant "workload kind"
      [
        case "app"
          (record (fun app affinity pass_by_value ->
               (app, affinity, pass_by_value))
          |> field "app" (enum "app" apps) (fun (a, _, _) -> a)
          |> field "affinity" bool (fun (_, a, _) -> a)
          |> field "pass_by_value" bool (fun (_, _, p) -> p))
          (fun (app, affinity, pass_by_value) ->
            App_run { app; affinity; pass_by_value })
          (function
            | App_run { app; affinity; pass_by_value } ->
                Some (app, affinity, pass_by_value)
            | _ -> None);
        case "ycsb"
          (record (fun mix ops -> (mix, ops))
          |> field "mix" (enum "YCSB mix" mixes) fst
          |> field "ops" int snd)
          (fun (mix, ops) -> Ycsb_run { mix; ops })
          (function Ycsb_run { mix; ops } -> Some (mix, ops) | _ -> None);
        case "failover"
          (record
             (fun fo_nodes fo_keys fo_key_bytes fo_duration fo_crash_t fo_victim
                  fo_bucket fo_think ->
               { Scenario.fo_nodes; fo_keys; fo_key_bytes; fo_duration;
                 fo_crash_t; fo_victim; fo_bucket; fo_think })
          |> field "nodes" int (fun s -> s.Scenario.fo_nodes)
          |> field "keys" int (fun s -> s.Scenario.fo_keys)
          |> field "key_bytes" int (fun s -> s.Scenario.fo_key_bytes)
          |> field "duration" number (fun s -> s.Scenario.fo_duration)
          |> field "crash_t" number (fun s -> s.Scenario.fo_crash_t)
          |> field "victim" int (fun s -> s.Scenario.fo_victim)
          |> field "bucket" number (fun s -> s.Scenario.fo_bucket)
          |> field "think" number (fun s -> s.Scenario.fo_think))
          (fun s -> Failover_kv s)
          (function Failover_kv s -> Some s | _ -> None);
        case "churn"
          (record
             (fun ch_nodes ch_active0 ch_joiners ch_leavers ch_sabotaged
                  ch_victim ch_crash_t ch_duration ch_churn_start ch_churn_gap
                  ch_think ch_key_bytes ch_ballast_bytes ch_zipf_theta
                  ch_replicas ->
               { Scenario.ch_nodes; ch_active0; ch_joiners; ch_leavers;
                 ch_sabotaged; ch_victim; ch_crash_t; ch_duration;
                 ch_churn_start; ch_churn_gap; ch_think; ch_key_bytes;
                 ch_ballast_bytes; ch_zipf_theta; ch_replicas })
          |> field "nodes" int (fun s -> s.Scenario.ch_nodes)
          |> field "active0" int (fun s -> s.Scenario.ch_active0)
          |> field "joiners" (list int) (fun s -> s.Scenario.ch_joiners)
          |> field "leavers" (list int) (fun s -> s.Scenario.ch_leavers)
          |> field "sabotaged" int (fun s -> s.Scenario.ch_sabotaged)
          |> field "victim" int (fun s -> s.Scenario.ch_victim)
          |> field "crash_t" number (fun s -> s.Scenario.ch_crash_t)
          |> field "duration" number (fun s -> s.Scenario.ch_duration)
          |> field "churn_start" number (fun s -> s.Scenario.ch_churn_start)
          |> field "churn_gap" number (fun s -> s.Scenario.ch_churn_gap)
          |> field "think" number (fun s -> s.Scenario.ch_think)
          |> field "key_bytes" int (fun s -> s.Scenario.ch_key_bytes)
          |> field "ballast_bytes" int (fun s -> s.Scenario.ch_ballast_bytes)
          |> field "zipf_theta" number (fun s -> s.Scenario.ch_zipf_theta)
          |> field "replicas" int (fun s -> s.Scenario.ch_replicas))
          (fun s -> Churn_kv s)
          (function Churn_kv s -> Some s | _ -> None);
      ])

let sim_codec =
  let faults =
    Json.(
      record (fun fault_seed events -> { fault_seed; events })
      |> field "fault_seed" int (fun f -> f.fault_seed)
      |> field "events" (list event_codec) (fun f -> f.events)
      |> seal)
  in
  Json.(
    record (fun topology system workload faults ->
        { topology; system; workload; faults })
    |> field "topology" topology_codec (fun s -> s.topology)
    |> field "system" (enum "system" systems) (fun s -> s.system)
    |> field "workload" workload_codec (fun s -> s.workload)
    |> field "faults" faults (fun s -> s.faults)
    |> seal)

let suite_codec =
  Json.(
    record (fun su_experiments su_node_counts su_churn_nodes su_seed ->
        { su_experiments; su_node_counts; su_churn_nodes; su_seed })
    |> field "experiments" (list string) (fun s -> s.su_experiments)
    |> optional "node_counts" (list int) (fun s -> s.su_node_counts)
    |> optional "churn_nodes" int (fun s -> s.su_churn_nodes)
    |> field "seed" int (fun s -> s.su_seed)
    |> seal)

(* The envelope carries exactly one of its two spec keys. *)
let codec =
  Json.(
    record (fun name expect sim suite -> (name, expect, sim, suite))
    |> const "schema" plan_schema
    |> field "name" string (fun (n, _, _, _) -> n)
    |> field "expect" string (fun (_, e, _, _) -> e)
    |> optional "sim" sim_codec (fun (_, _, s, _) -> s)
    |> optional "suite" suite_codec (fun (_, _, _, s) -> s)
    |> seal
    |> refine
         (function
           | name, expect, Some s, None -> Ok { name; expect; spec = Sim s }
           | name, expect, None, Some s -> Ok { name; expect; spec = Suite s }
           | _, _, Some _, Some _ ->
               Error "plan has both \"sim\" and \"suite\" specs"
           | _, _, None, None ->
               Error "plan has neither \"sim\" nor \"suite\" spec")
         (fun t ->
           match t.spec with
           | Sim s -> (t.name, t.expect, Some s, None)
           | Suite s -> (t.name, t.expect, None, Some s)))

let print t = Json.print (Json.encode codec t)
let save ~path t = Json.save ~path (Json.encode codec t)
let load ~path = Json.decode_file ~path codec
let field_names = Json.field_names codec

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

(* Every node id must fit a global address (docs/SIMPLAN.md). *)
let max_nodes = Drust_memory.Gaddr.max_nodes

let validate t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let name_ok =
    String.length t.name > 0
    && String.for_all
         (fun c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
           | _ -> false)
         t.name
  in
  if not name_ok then
    err "name %S is not usable as a file stem ([A-Za-z0-9._-]+)" t.name;
  if not (String.equal t.expect bench_schema) then
    err "expect %S is not the schema this build writes (%s)" t.expect
      bench_schema;
  (match t.spec with
  | Sim s ->
      let top = s.topology in
      if top.nodes < 1 || top.nodes > max_nodes then
        err "topology.nodes must be in [1, %d] (got %d)" max_nodes top.nodes;
      if top.cores_per_node < 1 then
        err "topology.cores_per_node must be >= 1 (got %d)" top.cores_per_node;
      if top.mem_per_node < 4096 then
        err "topology.mem_per_node must be >= 4096 bytes (got %d)"
          top.mem_per_node;
      if not (top.ghz > 0.0) then err "topology.ghz must be positive";
      let in_range what n =
        if n < 0 || n >= top.nodes then
          err "%s %d out of range [0, %d)" what n top.nodes
      in
      List.iter
        (function
          | Crash { node; at } ->
              in_range "crash node" node;
              if not (at >= 0.0) then err "crash at %g must be >= 0" at
          | Partition { group; at; heal_at } ->
              if group = [] then err "partition group is empty";
              List.iter (in_range "partition node") group;
              if not (at >= 0.0) then err "partition at %g must be >= 0" at;
              if not (heal_at > at) then
                err "partition heal_at %g must be after at %g" heal_at at
          | Degrade { from_node; target; drop; extra_latency; jitter } ->
              in_range "degrade from" from_node;
              in_range "degrade target" target;
              if from_node = target then
                err "degrade link %d -> %d is a self-loop" from_node target;
              if not (drop >= 0.0 && drop <= 1.0) then
                err "degrade drop %g outside [0, 1]" drop;
              if not (extra_latency >= 0.0) then
                err "degrade extra_latency %g must be >= 0" extra_latency;
              if not (jitter >= 0.0) then
                err "degrade jitter %g must be >= 0" jitter)
        s.faults.events;
      let require_crash ~victim ~at =
        let planned =
          List.exists
            (function
              | Crash { node; at = t } -> node = victim && t = at
              | _ -> false)
            s.faults.events
        in
        if not planned then
          err
            "scenario victim crash (node %d at %g) is missing from the fault \
             events — the plan's fault schedule is the single source of truth"
            victim at
      in
      (* App and YCSB clients do not retry: a crash, a partition or a
         lossy link ends their run in an uncaught exception or a main
         thread that never finishes.  Latency-only degrades are safe. *)
      let only_latency_faults kind =
        List.iter
          (function
            | Crash { node; _ } ->
                err "%s workloads take no crash events (node %d)" kind node
            | Partition _ -> err "%s workloads take no partition events" kind
            | Degrade { drop; _ } when drop > 0.0 ->
                err "%s workloads take no lossy degrade (drop %g)" kind drop
            | Degrade _ -> ())
          s.faults.events
      in
      (match s.workload with
      | App_run _ -> only_latency_faults "app"
      | Ycsb_run { ops; _ } ->
          only_latency_faults "ycsb";
          if ops < 1 then err "ycsb ops must be >= 1 (got %d)" ops
      | Failover_kv f ->
          if f.Scenario.fo_nodes <> top.nodes then
            err "failover nodes %d does not match topology.nodes %d"
              f.Scenario.fo_nodes top.nodes;
          if f.Scenario.fo_keys < 1 then err "failover keys must be >= 1";
          if f.Scenario.fo_key_bytes < 8 then
            err "failover key_bytes must be >= 8";
          if not (f.Scenario.fo_duration > 0.0) then
            err "failover duration must be positive";
          if
            not
              (f.Scenario.fo_crash_t > 0.0
              && f.Scenario.fo_crash_t < f.Scenario.fo_duration)
          then err "failover crash_t must fall inside (0, duration)";
          if f.Scenario.fo_victim < 0 || f.Scenario.fo_victim >= top.nodes then
            err "failover victim %d out of range" f.Scenario.fo_victim;
          if not (f.Scenario.fo_bucket > 0.0) then
            err "failover bucket must be positive";
          if not (f.Scenario.fo_think > 0.0) then
            err "failover think must be positive";
          require_crash ~victim:f.Scenario.fo_victim ~at:f.Scenario.fo_crash_t
      | Churn_kv c ->
          if c.Scenario.ch_nodes <> top.nodes then
            err "churn nodes %d does not match topology.nodes %d"
              c.Scenario.ch_nodes top.nodes;
          if c.Scenario.ch_active0 < 1 || c.Scenario.ch_active0 > top.nodes
          then err "churn active0 %d outside [1, nodes]" c.Scenario.ch_active0;
          let active0 = c.Scenario.ch_active0 in
          List.iter
            (fun j ->
              if j < active0 || j >= top.nodes then
                err "churn joiner %d must be a standby node in [%d, %d)" j
                  active0 top.nodes)
            c.Scenario.ch_joiners;
          List.iter
            (fun l ->
              if l < 0 || l >= active0 then
                err "churn leaver %d must be an active node in [0, %d)" l
                  active0)
            c.Scenario.ch_leavers;
          if c.Scenario.ch_sabotaged < 0 || c.Scenario.ch_sabotaged >= active0
          then err "churn sabotaged %d out of range" c.Scenario.ch_sabotaged;
          if c.Scenario.ch_victim < 0 || c.Scenario.ch_victim >= active0 then
            err "churn victim %d out of range" c.Scenario.ch_victim;
          if
            List.length (List.sort_uniq Int.compare c.Scenario.ch_leavers)
            <> List.length c.Scenario.ch_leavers
          then err "churn leavers contain duplicates";
          if not (c.Scenario.ch_duration > 0.0) then
            err "churn duration must be positive";
          if
            not
              (c.Scenario.ch_churn_start > 0.0
              && c.Scenario.ch_churn_start < c.Scenario.ch_duration)
          then err "churn churn_start must fall inside (0, duration)";
          if not (c.Scenario.ch_churn_gap > 0.0) then
            err "churn churn_gap must be positive";
          if
            not
              (c.Scenario.ch_crash_t > 0.0
              && c.Scenario.ch_crash_t < c.Scenario.ch_duration)
          then err "churn crash_t must fall inside (0, duration)";
          if not (c.Scenario.ch_think > 0.0) then
            err "churn think must be positive";
          if c.Scenario.ch_key_bytes < 8 then err "churn key_bytes must be >= 8";
          if c.Scenario.ch_ballast_bytes < c.Scenario.ch_key_bytes then
            err "churn ballast_bytes must be >= key_bytes";
          if not (c.Scenario.ch_zipf_theta > 0.0) then
            err "churn zipf_theta must be positive";
          if c.Scenario.ch_replicas < 1 then err "churn replicas must be >= 1";
          require_crash ~victim:c.Scenario.ch_victim ~at:c.Scenario.ch_crash_t)
  | Suite s ->
      if s.su_experiments = [] then err "suite names no experiments";
      List.iter
        (fun e ->
          if
            String.length e = 0
            || not
                 (String.for_all
                    (fun c ->
                      match c with
                      | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> true
                      | _ -> false)
                    e)
          then err "experiment name %S is not a valid identifier" e)
        s.su_experiments;
      (match s.su_node_counts with
      | Some [] -> err "node_counts is empty (omit the field instead)"
      | Some ns ->
          List.iter
            (fun n ->
              if n < 1 || n > max_nodes then
                err "node count %d must be in [1, %d]" n max_nodes)
            ns
      | None -> ());
      (match s.su_churn_nodes with
      | Some n when n < 16 || n > max_nodes ->
          err "churn_nodes %d must be in [16, %d]" n max_nodes
      | _ -> ()));
  match List.rev !errs with [] -> Ok () | es -> Error es

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type outcome_result =
  | App_done of {
      result : Drust_appkit.Appkit.result;
      latency : Metrics.histo option;
      snapshot : Metrics.snapshot;
    }
  | Failover_done of Scenario.failover_result
  | Churn_done of Scenario.churn_result

type outcome = {
  plan : t;
  result : outcome_result;
  violations : string list;
  cluster : Cluster.t;
}

let install_faults ~cluster ~nodes faults =
  let plan =
    Fault.create ~engine:(Cluster.engine cluster)
      ~rng:(Rng.create ~seed:faults.fault_seed)
      ~flight:(Cluster.flight cluster) ~nodes
  in
  List.iter
    (function
      | Crash { node; at } -> Fault.crash_at plan ~node ~at
      | Partition { group; at; heal_at } ->
          Fault.partition_at plan ~group ~at ~heal_at
      | Degrade { from_node; target; drop; extra_latency; jitter } ->
          Fault.degrade_link plan ~from:from_node ~target ~drop ~extra_latency
            ~jitter ())
    faults.events;
  Drust_net.Fabric.set_fault_plan (Cluster.fabric cluster) plan;
  plan

let run_app_body ~cluster ~backend ~app ~affinity ~pass_by_value =
  match app with
  | Dataframe_app ->
      Drust_dataframe.Dataframe.run ~cluster ~backend
        {
          Drust_dataframe.Dataframe.default_config with
          Drust_dataframe.Dataframe.use_tbox = affinity;
          use_spawn_to = affinity;
        }
  | Socialnet_app ->
      Drust_socialnet.Socialnet.run ~cluster ~backend
        {
          Drust_socialnet.Socialnet.default_config with
          Drust_socialnet.Socialnet.pass_by_value;
        }
  | Gemm_app ->
      Drust_gemm.Gemm.run ~cluster ~backend Drust_gemm.Gemm.default_config
  | Kvstore_app ->
      Drust_kvstore.Kvstore.run ~cluster ~backend
        Drust_kvstore.Kvstore.default_config

let execute ?(sanitize = false) ?(trace = false) t =
  (match validate t with
  | Ok () -> ()
  | Error es ->
      invalid_arg
        (Printf.sprintf "Simplan.execute: invalid plan %S: %s" t.name
           (String.concat "; " es)));
  let s =
    match t.spec with
    | Sim s -> s
    | Suite _ ->
        invalid_arg
          (Printf.sprintf
             "Simplan.execute: %S is a suite plan — replay it through the \
              bench CLI (--plan)"
             t.name)
  in
  let cluster = Cluster.create (params_of s.topology) in
  if trace then Drust_obs.Span.enable (Cluster.spans cluster);
  (* The flight recorder's dump stem is the plan name, so a failing run
     leaves [<name>.flight.json] next to the plan that provoked it. *)
  Flight.set_label (Cluster.flight cluster) t.name;
  (* A local sanitizer: each concurrently-executing plan owns its own
     shadow state, so fuzz batches can fan out over domains. *)
  let dsan = if sanitize then Some (Dsan.attach cluster) else None in
  (* Only install a fault plan when the run needs one: an installed plan
     changes the fabric's per-verb bookkeeping, and plain app runs must
     stay byte-identical with the pre-plan harness. *)
  let needs_faults =
    s.faults.events <> []
    || match s.workload with Failover_kv _ | Churn_kv _ -> true | _ -> false
  in
  let fault =
    if needs_faults then
      Some (install_faults ~cluster ~nodes:s.topology.nodes s.faults)
    else None
  in
  let finish result =
    let violations =
      match dsan with
      | None -> []
      | Some d ->
          let reports = List.map Dsan.report_to_string (Dsan.violations d) in
          Dsan.detach d;
          reports
    in
    { plan = t; result; violations; cluster }
  in
  (* Any exception escaping the workload — expectation failures, injected
     chaos the harness did not survive, plain bugs — dumps the black box
     before unwinding (docs/FORENSICS.md). *)
  Flight.guard (Cluster.flight cluster)
    ~now:(fun () -> Cluster.now cluster)
  @@ fun () ->
  match s.workload with
  | App_run { app; affinity; pass_by_value } ->
      let backend = make_backend s.system cluster in
      let result =
        run_app_body ~cluster ~backend ~app ~affinity ~pass_by_value
      in
      let snapshot = Metrics.snapshot (Cluster.metrics cluster) in
      finish
        (App_done
           {
             result;
             latency = Metrics.merged_histo snapshot "protocol.op_latency";
             snapshot;
           })
  | Ycsb_run { mix; ops } ->
      let backend = make_backend s.system cluster in
      let result =
        Drust_kvstore.Kvstore.run ~cluster ~backend
          {
            Drust_kvstore.Kvstore.default_config with
            Drust_kvstore.Kvstore.workload = Some mix;
            ops;
          }
      in
      let snapshot = Metrics.snapshot (Cluster.metrics cluster) in
      finish
        (App_done
           {
             result;
             latency = Metrics.merged_histo snapshot "protocol.op_latency";
             snapshot;
           })
  | Failover_kv spec ->
      let fault = Option.get fault in
      finish
        (Failover_done
           (Scenario.failover ~cluster ~fault ~seed:s.topology.seed spec))
  | Churn_kv spec ->
      let fault = Option.get fault in
      finish
        (Churn_done (Scenario.churn ~cluster ~fault ~seed:s.topology.seed spec))
