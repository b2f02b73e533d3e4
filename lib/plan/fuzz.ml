module Rng = Drust_util.Rng
module Params = Drust_machine.Params

type verdict = Pass | Violations of string list | Crashed of string

let is_failure = function Pass -> false | Violations _ | Crashed _ -> true

let verdict_to_string = function
  | Pass -> "pass"
  | Violations vs ->
      Printf.sprintf "%d sanitizer violation%s: %s" (List.length vs)
        (if List.length vs = 1 then "" else "s")
        (String.concat " | " vs)
  | Crashed e -> "crashed: " ^ e

let default_oracle plan =
  match Simplan.execute ~sanitize:true plan with
  | { Simplan.violations = []; _ } -> Pass
  | { Simplan.violations; _ } -> Violations violations
  | exception e -> Crashed (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)

let add_events plan extra =
  if extra = [] then plan
  else
    match plan.Simplan.spec with
    | Simplan.Sim s ->
        {
          plan with
          Simplan.spec =
            Simplan.Sim
              {
                s with
                Simplan.faults =
                  {
                    s.Simplan.faults with
                    Simplan.events = s.Simplan.faults.Simplan.events @ extra;
                  };
              };
        }
    | Simplan.Suite _ -> plan

(* A lossless link degradation: latency and jitter only, zero drop —
   the one fault shape safe to inject into workloads whose clients do
   not retry. *)
let benign_degrade r ~nodes =
  let from_node = Rng.int r nodes in
  let target = (from_node + 1 + Rng.int r (nodes - 1)) mod nodes in
  Simplan.Degrade
    {
      from_node;
      target;
      drop = 0.0;
      extra_latency = Rng.float r 2e-4;
      jitter = Rng.float r 5e-5;
    }

let gen_failover r ~name ~plan_seed ~max_nodes =
  let nodes = Rng.int_in r 3 (min 8 max_nodes) in
  let victim = Rng.int_in r 1 (nodes - 1) in
  let duration = 30e-3 +. Rng.float r 50e-3 in
  let spec =
    {
      Scenario.fo_nodes = nodes;
      fo_keys = Rng.int_in r 8 48;
      fo_key_bytes = Rng.choose r [| 32; 64; 128; 256 |];
      fo_duration = duration;
      fo_crash_t = duration *. (0.25 +. Rng.float r 0.5);
      fo_victim = victim;
      fo_bucket = 5e-3;
      fo_think = 1e-5 +. Rng.float r 4e-5;
    }
  in
  let plan = Simplan.failover_plan ~name ~spec ~seed:plan_seed () in
  let extra = ref [] in
  (if nodes >= 3 && Rng.bernoulli r ~p:0.35 then
     let others =
       List.filter (fun n -> n <> victim) (List.init (nodes - 1) (fun i -> i + 1))
     in
     match others with
     | [] -> ()
     | _ ->
         let member = List.nth others (Rng.int r (List.length others)) in
         let at = duration *. (0.05 +. Rng.float r 0.3) in
         let heal_at = at +. (duration *. (0.05 +. Rng.float r 0.2)) in
         extra := [ Simplan.Partition { group = [ member ]; at; heal_at } ]);
  (if Rng.bernoulli r ~p:0.35 then
     let from_node = Rng.int r nodes in
     let target = (from_node + 1 + Rng.int r (nodes - 1)) mod nodes in
     let drop = if Rng.bool r then 0.0 else Rng.float r 0.2 in
     extra :=
       !extra
       @ [
           Simplan.Degrade
             {
               from_node;
               target;
               drop;
               extra_latency = Rng.float r 2e-4;
               jitter = Rng.float r 5e-5;
             };
         ]);
  add_events plan !extra

let gen_churn r ~name ~plan_seed ~max_nodes =
  let sizes = List.filter (fun n -> n <= max_nodes) [ 16; 20; 24 ] in
  let nodes = List.nth sizes (Rng.int r (List.length sizes)) in
  let plan = Simplan.churn_plan ~name ~seed:plan_seed ~nodes () in
  if Rng.bernoulli r ~p:0.3 then
    add_events plan [ benign_degrade r ~nodes ]
  else plan

let all_backends = [| Simplan.Drust; Gam; Grappa; Original |]

let gen_ycsb r ~name ~plan_seed ~max_nodes =
  let nodes = Rng.int_in r 1 (min 8 max_nodes) in
  let system = Rng.choose r all_backends in
  let mixes = Array.of_list Drust_workloads.Ycsb.all_workloads in
  let mix = Rng.choose r mixes in
  let ops = Rng.int_in r 1_000 6_000 in
  let params =
    { Params.default with Params.nodes; Params.seed = plan_seed }
  in
  let plan = Simplan.ycsb_plan ~name ~params ~mix ~ops system in
  if nodes >= 2 && Rng.bernoulli r ~p:0.3 then
    add_events plan [ benign_degrade r ~nodes ]
  else plan

let gen_app r ~name ~plan_seed ~max_nodes =
  let nodes = Rng.int_in r 1 (min 4 max_nodes) in
  let system = Rng.choose r all_backends in
  let app = Rng.choose r [| Simplan.Dataframe_app; Socialnet_app; Gemm_app; Kvstore_app |] in
  let affinity =
    (match app with Simplan.Dataframe_app -> true | _ -> false) && Rng.bool r
  in
  let pass_by_value =
    (match app with Simplan.Socialnet_app -> true | _ -> false)
    && Rng.bernoulli r ~p:0.25
  in
  let params =
    { Params.default with Params.nodes; Params.seed = plan_seed }
  in
  let plan =
    Simplan.app_plan ~name ~affinity ~pass_by_value ~params app system
  in
  if nodes >= 2 && Rng.bernoulli r ~p:0.25 then
    add_events plan [ benign_degrade r ~nodes ]
  else plan

let plans ~seed ~count ~max_nodes =
  if max_nodes < 4 then invalid_arg "Fuzz.plans: max_nodes must be >= 4";
  List.init count (fun i ->
      let r = Rng.create ~seed:((seed * 1_000_003) + i) in
      let name = Printf.sprintf "fuzz-s%d-p%03d" seed i in
      let plan_seed = Rng.int r 1_000_000 in
      let k = Rng.int r 100 in
      let plan =
        if k < 40 then gen_failover r ~name ~plan_seed ~max_nodes
        else if k < 65 then gen_ycsb r ~name ~plan_seed ~max_nodes
        else if k < 80 then
          if max_nodes >= 16 then gen_churn r ~name ~plan_seed ~max_nodes
          else gen_failover r ~name ~plan_seed ~max_nodes
        else gen_app r ~name ~plan_seed ~max_nodes
      in
      (match Simplan.validate plan with
      | Ok () -> ()
      | Error es ->
          invalid_arg
            (Printf.sprintf "Fuzz.plans: generator produced invalid plan %s: %s"
               name (String.concat "; " es)));
      plan)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

let plan_eq a b = String.equal (Simplan.print a) (Simplan.print b)

let drop_nth xs n = List.filteri (fun i _ -> i <> n) xs

(* Candidate simplifications, in the fixed order the greedy loop tries
   them.  Candidates may be invalid (e.g. dropping the scenario's
   required crash event, or shrinking duration below crash_t) — the
   caller filters through [Simplan.validate] before running any. *)
let candidates t =
  match t.Simplan.spec with
  | Simplan.Suite _ -> []
  | Simplan.Sim s ->
      let sim ?topology ?workload ?faults () =
        let topology = Option.value topology ~default:s.Simplan.topology in
        let workload = Option.value workload ~default:s.Simplan.workload in
        let faults = Option.value faults ~default:s.Simplan.faults in
        { t with Simplan.spec = Simplan.Sim { s with topology; workload; faults } }
      in
      let events = s.Simplan.faults.Simplan.events in
      let dropped_events =
        List.mapi
          (fun i _ ->
            sim
              ~faults:
                {
                  s.Simplan.faults with
                  Simplan.events = drop_nth events i;
                }
              ())
          events
      in
      let seed = s.Simplan.topology.Simplan.seed in
      let specific =
        match s.Simplan.workload with
        | Simplan.Failover_kv f ->
            [ Simplan.failover_plan ~name:t.Simplan.name ~seed () ]
            @ (let n' = max 3 (f.Scenario.fo_nodes / 2) in
               if n' < f.Scenario.fo_nodes && f.Scenario.fo_victim < n' then
                 [
                   sim
                     ~topology:{ s.Simplan.topology with Simplan.nodes = n' }
                     ~workload:
                       (Simplan.Failover_kv { f with Scenario.fo_nodes = n' })
                     ();
                 ]
               else [])
            @ (if f.Scenario.fo_keys > 1 then
                 [
                   sim
                     ~workload:
                       (Simplan.Failover_kv
                          { f with Scenario.fo_keys = max 1 (f.Scenario.fo_keys / 2) })
                     ();
                 ]
               else [])
            @ (if f.Scenario.fo_key_bytes > 8 then
                 [
                   sim
                     ~workload:
                       (Simplan.Failover_kv { f with Scenario.fo_key_bytes = 8 })
                     ();
                 ]
               else [])
            @
            let d' = f.Scenario.fo_duration /. 2.0 in
            if f.Scenario.fo_crash_t < d' then
              [
                sim
                  ~workload:
                    (Simplan.Failover_kv { f with Scenario.fo_duration = d' })
                  ();
              ]
            else []
        | Simplan.Churn_kv c ->
            [ Simplan.churn_plan ~name:t.Simplan.name ~seed ~nodes:16 () ]
            @ (if c.Scenario.ch_key_bytes > 8 then
                 [
                   sim
                     ~workload:
                       (Simplan.Churn_kv
                          { c with Scenario.ch_key_bytes = max 8 (c.Scenario.ch_key_bytes / 2) })
                     ();
                 ]
               else [])
            @ (if c.Scenario.ch_ballast_bytes > c.Scenario.ch_key_bytes then
                 [
                   sim
                     ~workload:
                       (Simplan.Churn_kv
                          {
                            c with
                            Scenario.ch_ballast_bytes =
                              max c.Scenario.ch_key_bytes
                                (c.Scenario.ch_ballast_bytes / 2);
                          })
                     ();
                 ]
               else [])
            @
            let d' = c.Scenario.ch_duration /. 2.0 in
            [
              sim
                ~workload:(Simplan.Churn_kv { c with Scenario.ch_duration = d' })
                ();
            ]
        | Simplan.Ycsb_run { mix; ops } ->
            (if ops > 100 then
               [ sim ~workload:(Simplan.Ycsb_run { mix; ops = ops / 2 }) () ]
             else [])
            @
            let n' = max 1 (s.Simplan.topology.Simplan.nodes / 2) in
            if n' < s.Simplan.topology.Simplan.nodes then
              [ sim ~topology:{ s.Simplan.topology with Simplan.nodes = n' } () ]
            else []
        | Simplan.App_run { app; affinity; pass_by_value } ->
            (let n' = max 1 (s.Simplan.topology.Simplan.nodes / 2) in
             if n' < s.Simplan.topology.Simplan.nodes then
               [ sim ~topology:{ s.Simplan.topology with Simplan.nodes = n' } () ]
             else [])
            @ (if affinity then
                 [
                   sim
                     ~workload:
                       (Simplan.App_run { app; affinity = false; pass_by_value })
                     ();
                 ]
               else [])
            @
            if pass_by_value then
              [
                sim
                  ~workload:
                    (Simplan.App_run { app; affinity; pass_by_value = false })
                  ();
              ]
            else []
      in
      dropped_events @ specific

let max_shrink_steps = 64

let shrink ~oracle plan =
  let v0 = oracle plan in
  if not (is_failure v0) then (plan, v0)
  else
    let rec go plan v steps =
      if steps >= max_shrink_steps then (plan, v)
      else
        let cs =
          List.filter
            (fun c ->
              (match Simplan.validate c with Ok () -> true | Error _ -> false)
              && not (plan_eq c plan))
            (candidates plan)
        in
        let rec try_next = function
          | [] -> (plan, v)
          | c :: rest -> (
              let vc = oracle c in
              if is_failure vc then go c vc (steps + 1) else try_next rest)
        in
        try_next cs
    in
    go plan v0 0
