(* Tests for the plan layer (lib/plan): SimPlan codec roundtrip over
   generated plans, validator rejections, replay equivalence against
   direct experiment runs, and the seeded fuzz/shrink regression — an
   injected protocol bug (a DSan violation synthesized through the
   sanitizer's injection surface, as in test_check.ml) is found by the
   fuzzer and shrunk deterministically to a pinned minimal plan. *)

module Simplan = Drust_plan.Simplan
module Scenario = Drust_plan.Scenario
module Fuzz = Drust_plan.Fuzz
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Gaddr = Drust_memory.Gaddr
module Tap = Drust_memory.Tap
module P = Drust_core.Protocol
module Dsan = Drust_check.Dsan

(* Decode [text] with [load] the way [--plan] does, from a file: [Ok]
   or the error with its file prefix stripped (every error must carry
   one). *)
let load_text load text =
  let path = Filename.temp_file "plan" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Result.map_error
        (fun m ->
          match Astring.String.cut ~sep:(path ^ ": ") m with
          | Some ("", rest) -> rest
          | _ -> Alcotest.failf "error %S does not name the file" m)
        (load ~path))

let parse = load_text Simplan.load

(* Every row decodes to its pinned [Ok] summary or exact error text,
   and none raises. *)
let check_rows decode rows =
  List.iter
    (fun (what, text, want) ->
      match decode text with
      | got -> Alcotest.(check (result string string)) what want got
      | exception e ->
          Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    rows

(* ------------------------------------------------------------------ *)
(* Codec roundtrip: parse (print p) = p, over generated plans *)

let generated_plans () =
  (* Two batches: one without churn (small clusters), one at 16 nodes
     so churn plans are sampled too; constructors cover the rest. *)
  Fuzz.plans ~seed:11 ~count:30 ~max_nodes:8
  @ Fuzz.plans ~seed:12 ~count:20 ~max_nodes:16
  (* the @fuzz alias's batch *)
  @ Fuzz.plans ~seed:1 ~count:25 ~max_nodes:16
  @ [
      Simplan.app_plan ~params:Params.default Simplan.Gemm_app Simplan.Drust;
      Simplan.app_plan ~affinity:true ~params:Params.default
        Simplan.Dataframe_app Simplan.Gam;
      Simplan.ycsb_plan ~params:Params.default
        ~mix:(List.hd Drust_workloads.Ycsb.all_workloads)
        ~ops:500 Simplan.Grappa;
      Simplan.failover_plan ~seed:7 ();
      Simplan.churn_plan ~seed:9 ~nodes:16 ();
      Simplan.suite_plan ~name:"everything" ~node_counts:[ 1; 2 ]
        ~churn_nodes:16 ~seed:5
        [ "fig5"; "churn" ];
      Simplan.suite_plan ~name:"fig5" [ "fig5" ];
    ]

let test_roundtrip () =
  List.iter
    (fun p ->
      let printed = Simplan.print p in
      match parse printed with
      | Error e -> Alcotest.failf "%s does not re-parse: %s" p.Simplan.name e
      | Ok p' ->
          if p' <> p then
            Alcotest.failf "%s roundtrip is not structural identity"
              p.Simplan.name;
          Alcotest.(check string)
            (p.Simplan.name ^ " canonical bytes")
            printed (Simplan.print p'))
    (generated_plans ())

let test_generated_plans_validate () =
  List.iter
    (fun p ->
      match Simplan.validate p with
      | Ok () -> ()
      | Error errs ->
          Alcotest.failf "%s is invalid: %s" p.Simplan.name
            (String.concat "; " errs))
    (generated_plans ())

let test_generator_deterministic () =
  let batch () =
    List.map (fun p -> Simplan.print p) (Fuzz.plans ~seed:3 ~count:10 ~max_nodes:16)
  in
  Alcotest.(check (list string)) "same seed, same plans" (batch ()) (batch ())

let test_field_names_sorted () =
  let names = Simplan.field_names in
  Alcotest.(check (list string))
    "sorted, duplicate-free" (List.sort_uniq compare names) names;
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " is a field") true (List.mem f names))
    [ "schema"; "name"; "expect"; "sim"; "suite"; "fault_seed"; "zipf_theta" ]

(* ------------------------------------------------------------------ *)
(* Validator rejections *)

let with_sim f (p : Simplan.t) =
  match p.Simplan.spec with
  | Simplan.Sim s -> { p with Simplan.spec = Simplan.Sim (f s) }
  | Simplan.Suite _ -> assert false

let rejects what p =
  match Simplan.validate p with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "validator accepted %s" what

let with_events events =
  with_sim (fun s ->
      { s with Simplan.faults = { s.Simplan.faults with Simplan.events } })

let test_validate_rejects () =
  let fo = Simplan.failover_plan ~seed:7 () in
  rejects "a path-hostile name" { fo with Simplan.name = "a/b" };
  rejects "an empty name" { fo with Simplan.name = "" };
  rejects "a foreign expect schema" { fo with Simplan.expect = "bogus/v0" };
  rejects "a zero-node topology"
    (with_sim
       (fun s ->
         {
           s with
           Simplan.topology = { s.Simplan.topology with Simplan.nodes = 0 };
         })
       fo);
  rejects "an app topology above the global-address node cap"
    (Simplan.app_plan
       ~params:
         { Params.default with Params.nodes = Drust_memory.Gaddr.max_nodes + 1 }
       Simplan.Gemm_app Simplan.Drust);
  rejects "a churn plan above the node cap"
    (Simplan.churn_plan ~seed:7 ~nodes:200 ());
  rejects "a crash on a node outside the cluster"
    (with_sim
       (fun s ->
         {
           s with
           Simplan.faults =
             {
               s.Simplan.faults with
               Simplan.events =
                 [ Simplan.Crash { node = 99; at = 1e-3 } ];
             };
         })
       fo);
  rejects "a partition healing before it starts"
    (with_sim
       (fun s ->
         {
           s with
           Simplan.faults =
             {
               s.Simplan.faults with
               Simplan.events =
                 s.Simplan.faults.Simplan.events
                 @ [
                     Simplan.Partition
                       { group = [ 1 ]; at = 2e-3; heal_at = 1e-3 };
                   ];
             };
         })
       fo);
  rejects "a failover plan whose victim crash is not scheduled"
    (with_sim
       (fun s ->
         { s with Simplan.faults = { s.Simplan.faults with Simplan.events = [] } })
       fo);
  rejects "a churn suite below 16 nodes"
    (Simplan.suite_plan ~name:"tiny-churn" ~churn_nodes:16
       [ "churn" ]
    |> fun p ->
       match p.Simplan.spec with
       | Simplan.Suite s ->
           {
             p with
             Simplan.spec = Simplan.Suite { s with Simplan.su_churn_nodes = Some 8 };
           }
       | Simplan.Sim _ -> assert false);
  rejects "a churn suite above the node cap"
    (Simplan.suite_plan ~name:"huge-churn" ~churn_nodes:200 [ "churn" ]);
  rejects "a fig5 sweep above the node cap"
    (Simplan.suite_plan ~name:"huge-fig5" ~node_counts:[ 8; 129 ] [ "fig5" ]);
  rejects "a suite naming an ill-formed experiment"
    (Simplan.suite_plan ~name:"caps" [ "Fig5" ]);
  (* App and YCSB clients do not retry, so only latency-only degrades
     are safe for them. *)
  let params = { Params.default with Params.nodes = 4 } in
  let kv = Simplan.app_plan ~params Simplan.Kvstore_app Simplan.Drust in
  let ycsb =
    Simplan.ycsb_plan ~params
      ~mix:(List.hd Drust_workloads.Ycsb.all_workloads)
      ~ops:500 Simplan.Drust
  in
  let degrade drop =
    Simplan.Degrade
      { from_node = 0; target = 1; drop; extra_latency = 1e-5; jitter = 0.0 }
  in
  let crash = Simplan.Crash { node = 1; at = 1e-3 } in
  let partition = Simplan.Partition { group = [ 1; 2 ]; at = 1e-3; heal_at = 2e-3 } in
  rejects "a crash on an app workload" (with_events [ crash ] kv);
  rejects "a partition on an app workload" (with_events [ partition ] kv);
  rejects "a lossy degrade on an app workload" (with_events [ degrade 0.5 ] kv);
  rejects "a crash on a ycsb workload" (with_events [ crash ] ycsb);
  rejects "a partition on a ycsb workload" (with_events [ partition ] ycsb);
  rejects "a lossy degrade on a ycsb workload"
    (with_events [ degrade 0.5 ] ycsb);
  List.iter
    (fun p ->
      match Simplan.validate (with_events [ degrade 0.0 ] p) with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "latency-only degrade rejected: %s"
            (String.concat "; " es))
    [ kv; ycsb ]

(* A plan envelope around [specs], each [(key, spec)]. *)
let envelope ?(name = {|"x"|}) specs =
  Printf.sprintf
    {|{ "schema": "drust-simplan/v1", "name": %s, "expect": "drust-bench-summary/v3"%s }|}
    name
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ", %S: %s" k v) specs))

(* A well-formed sim spec with one field replaceable. *)
let sim_spec ?(nodes = "2") ?(ghz = "2.6") ?(system = "drust")
    ?(workload =
      {|{ "kind": "app", "app": "gemm", "affinity": false, "pass_by_value": false }|})
    ?(events = "") () =
  Printf.sprintf
    {|{ "topology": { "nodes": %s, "cores_per_node": 4, "mem_per_node": 67108864, "ghz": %s, "seed": 1 },
        "system": %S, "workload": %s,
        "faults": { "fault_seed": 3, "events": [%s] } }|}
    nodes ghz system workload events

let suite_spec = {|{ "experiments": ["fig5"], "seed": 1 }|}

(* [text] with the number that follows ["key": ] replaced by [v]. *)
let with_number key v text =
  let tag = Printf.sprintf "%S: " key in
  let i = Option.get (Astring.String.find_sub ~sub:tag text) + String.length tag in
  let j = ref i in
  while String.contains "0123456789-+.eE" text.[!j] do incr j done;
  String.sub text 0 i ^ v ^ String.sub text !j (String.length text - !j)

let test_parse_errors () =
  let suite fields =
    envelope
      [ ("suite", Printf.sprintf {|{ "experiments": ["table1"], %s "seed": 1 }|} fields) ]
  in
  let sim ?name ?nodes ?ghz ?system ?workload ?events () =
    envelope ?name [ ("sim", sim_spec ?nodes ?ghz ?system ?workload ?events ()) ]
  in
  let failover = List.hd (Fuzz.plans ~seed:11 ~count:1 ~max_nodes:8) in
  Alcotest.(check string) "the corpus's first plan" "fuzz-s11-p000"
    failover.Simplan.name;
  let workload w = sim ~workload:w () in
  let event e = sim ~events:e () in
  check_rows
    (fun text -> Result.map (fun p -> p.Simplan.name) (parse text))
    [
      ("a well-formed sim plan", sim (), Ok "x");
      ("a well-formed suite plan", suite {|"churn_nodes": 16,|}, Ok "x");
      ("truncated JSON", "{", Error {|expected '"' at byte 1|});
      ("an empty object", "{}", Error ".schema: missing field");
      ( "a foreign schema tag",
        {|{ "schema": "something/v9", "name": "x", "expect": "drust-bench-summary/v3", "suite": { "experiments": ["fig5"], "seed": 1 } }|},
        Error {|.schema: expected "drust-simplan/v1", got "something/v9"|} );
      ( "a plan with both sim and suite",
        envelope [ ("suite", suite_spec); ("sim", "{}") ],
        Error ".sim.faults: missing field" );
      ( "a plan with both a whole sim and a suite",
        envelope [ ("suite", suite_spec); ("sim", sim_spec ()) ],
        Error {|.: plan has both "sim" and "suite" specs|} );
      ( "a plan with neither sim nor suite",
        envelope [],
        Error {|.: plan has neither "sim" nor "suite" spec|} );
      ( "a plan whose only spec key is misspelled",
        envelope [ ("sims", sim_spec ()) ],
        Error ".sims: unknown key" );
      ( "an unknown (misspelled optional) key",
        suite {|"churn_node": 16,|},
        Error ".suite.churn_node: unknown key" );
      ("a duplicate key", suite {|"seed": 2,|}, Error ".suite.seed: duplicate key");
      ( "a wrongly typed optional field",
        suite {|"node_counts": "2,4",|},
        Error ".suite.node_counts: expected an array" );
      ( "a non-object spec",
        envelope [ ("suite", {|["fig5"]|}) ],
        Error ".suite: expected an object" );
      ( "an unknown fault event kind",
        event {|{ "kind": "meteor", "node": 1, "at": 0.001 }|},
        Error {|.sim.faults.events[0]: unknown fault event kind "meteor"|} );
      ( "a fault event without a kind",
        event {|{ "node": 1, "at": 0.001 }|},
        Error ".sim.faults.events[0].kind: missing field" );
      ( "a crash event with a partition's key",
        event {|{ "kind": "crash", "node": 1, "at": 0.001, "heal_at": 0.002 }|},
        Error ".sim.faults.events[0].heal_at: unknown key" );
      ( "an unknown workload kind",
        workload {|{ "kind": "bogus" }|},
        Error {|.sim.workload: unknown workload kind "bogus"|} );
      ( "an unknown app",
        workload {|{ "kind": "app", "app": "excel", "affinity": false, "pass_by_value": false }|},
        Error {|.sim.workload.app: unknown app "excel"|} );
      ( "an unknown YCSB mix",
        workload {|{ "kind": "ycsb", "mix": "Z", "ops": 10 }|},
        Error {|.sim.workload.mix: unknown YCSB mix "Z"|} );
      ( "an overflowing op count",
        workload {|{ "kind": "ycsb", "mix": "A (50/50 update)", "ops": 1e999 }|},
        Error ".sim.workload.ops: expected an integer" );
      ( "an unknown system",
        sim ~system:"dsm" (),
        Error {|.sim.system: unknown system "dsm"|} );
      ( "a fractional node count",
        sim ~nodes:"2.5" (),
        Error ".sim.topology.nodes: expected an integer" );
      (* Numbers the writer could not write back fail closed. *)
      ( "a clock rate that overflows to infinity",
        sim ~ghz:"1e999" (),
        Error ".sim.topology.ghz: number out of range" );
      ( "a failover duration that overflows to infinity",
        with_number "duration" "1e999" (Simplan.print failover),
        Error ".sim.workload.duration: number out of range" );
      ("a four-digit unicode escape", sim ~name:{|"\u0041"|} (), Ok "A");
      ( "a unicode escape with an underscore",
        sim ~name:{|"\u0_41"|} (),
        Error "bad unicode escape at byte 42" );
    ]

(* ------------------------------------------------------------------ *)
(* Strictness sweep: every object key the three artifact encoders write
   (one plan per workload kind, a suite plan, a flight dump and a bench
   summary) is dropped, duplicated and retyped in turn, and each edit
   must decode to its exact error — or, for an optional field or a map
   entry, still decode — without raising. *)

module Json = Drust_util.Json
module Flight = Drust_obs.Flight
module Report = Drust_experiments.Report

(* Drust_util.Json's jq-style path of key [k] under [path]. *)
let key_path path k =
  let ident = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  if k <> "" && String.for_all ident k then
    (if path = "." then "" else path) ^ "." ^ k
  else Printf.sprintf "%s[%S]" path k

(* What an edited artifact must decode to. *)
type want = Decodes | Fails of string | Fails_at of string

(* Dropping an optional field or a map entry still decodes; dropping a
   plan's only spec breaks the one-spec rule. *)
let dropped path k p =
  let optional =
    [ "node_counts"; "churn_nodes"; "object"; "latency_us"; "host_ms";
      "host_events_per_sec" ]
  in
  if List.mem k optional || path = ".entries"
     || Filename.check_suffix path ".latency_us"
  then Decodes
  else if path = "." && (k = "sim" || k = "suite") then
    Fails {|.: plan has neither "sim" nor "suite" spec|}
  else Fails (p ^ ": missing field")

(* Each single edit of tree [j]: its name, the edited tree, and what it
   must decode to.  [rebuild] puts an edited [j] back into the whole. *)
let rec edits path j rebuild =
  let nth i x xs = List.mapi (fun i' y -> if i' = i then x else y) xs in
  match j with
  | Json.Obj kvs ->
      List.concat
        (List.mapi
           (fun i (k, v) ->
             let p = key_path path k in
             let put x = rebuild (Json.Obj (nth i (k, x) kvs)) in
             let wrong =
               match v with Json.Str _ -> Json.Num 1.0 | _ -> Json.Str "x"
             in
             let without = List.filteri (fun i' _ -> i' <> i) kvs in
             let twice =
               List.concat_map
                 (fun kv -> if fst kv = k then [ kv; kv ] else [ kv ])
                 kvs
             in
             [
               ("drop " ^ p, rebuild (Json.Obj without), dropped path k p);
               ( "duplicate " ^ p,
                 rebuild (Json.Obj twice),
                 Fails (p ^ ": duplicate key") );
               ("retype " ^ p, put wrong, Fails_at p);
             ]
             @ edits p v put)
           kvs)
  | Json.Arr xs ->
      List.concat
        (List.mapi
           (fun i x ->
             edits (Printf.sprintf "%s[%d]" path i) x (fun x' ->
                 rebuild (Json.Arr (nth i x' xs))))
           xs)
  | _ -> []

(* Sweep the tree saved at [path] through [load]; the number of edits. *)
let sweep load path =
  let all = edits "." (Json.load ~path) Fun.id in
  List.iter
    (fun (what, j, want) ->
      Json.save ~path j;
      let in_file m = path ^ ": " ^ m in
      match (load ~path, want) with
      | Ok _, Decodes -> ()
      | Error m, Fails e when m = in_file e -> ()
      | Error m, Fails_at p
        when String.starts_with ~prefix:(in_file p ^ ": ") m ->
          ()
      | Ok _, _ -> Alcotest.failf "%s: accepted" what
      | Error m, _ -> Alcotest.failf "%s: %S" what m
      | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    all;
  List.length all

let test_strictness_sweep () =
  let tmp = Filename.temp_file "sweep" ".d" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o700;
  let file = Filename.concat tmp "artifact.json" in
  Fun.protect
    ~finally:(fun () ->
      Flight.set_dump_dir None;
      Report.set_host_time_recording false;
      Array.iter (fun f -> Sys.remove (Filename.concat tmp f)) (Sys.readdir tmp);
      Unix.rmdir tmp)
  @@ fun () ->
  (* Decoding does not validate, so any fault event can ride any plan. *)
  let params = { Params.default with Params.nodes = 4 } in
  let crash = Simplan.Crash { node = 1; at = 1e-3 } in
  let partition = Simplan.Partition { group = [ 2 ]; at = 1e-3; heal_at = 2e-3 } in
  let degrade =
    Simplan.Degrade
      { from_node = 0; target = 1; drop = 0.5; extra_latency = 1e-5; jitter = 0.0 }
  in
  let plans =
    [
      with_events [ crash; partition; degrade ]
        (Simplan.app_plan ~params Simplan.Kvstore_app Simplan.Drust);
      Simplan.ycsb_plan ~params ~mix:Drust_workloads.Ycsb.B ~ops:10 Simplan.Gam;
      Simplan.failover_plan ~seed:7 ();
      Simplan.churn_plan ~seed:9 ~nodes:16 ();
      Simplan.suite_plan ~name:"all" ~node_counts:[ 1; 2 ] ~churn_nodes:16
        [ "fig5" ];
    ]
  in
  let edits_plans =
    List.fold_left
      (fun n p ->
        Simplan.save ~path:file p;
        n + sweep Simplan.load file)
      0 plans
  in
  Flight.set_dump_dir (Some tmp);
  let t = Flight.create ~cap:4 ~nodes:2 () in
  Flight.set_label t "sweep";
  Flight.record t ~node:0 ~time:1e-6 ~kind:Flight.k_create ~a:64 ~b:0 ~c:0 ~d:8;
  Flight.record t ~node:1 ~time:2e-6 ~kind:Flight.k_read_fetch ~a:64 ~b:0 ~c:0 ~d:0;
  ignore (Flight.auto_dump t ~reason:"sweep" ~object_:64 ~now:3e-6 ());
  let edits_dump = sweep Flight.load (Filename.concat tmp "sweep.flight.json") in
  Report.set_host_time_recording true;
  let m = Drust_obs.Metrics.create () in
  let h = Drust_obs.Metrics.histogram m ~unit_:"s" "sweep.lat" in
  Drust_obs.Metrics.observe h 1e-6;
  let latency =
    match Drust_obs.Metrics.find (Drust_obs.Metrics.snapshot m) "sweep.lat" with
    | Some (Drust_obs.Metrics.Histo hs) -> hs
    | _ -> Alcotest.fail "sweep histogram missing"
  in
  Report.record_rate ~latency ~host_ms:2.0 ~host_rate:3.0
    ~experiment:"sweep/kv/drust/4n" ~ops:10.0 ~elapsed:1.0 ();
  Report.write_bench_summary ~path:file;
  let edits_summary = sweep Report.read_bench_summary file in
  (* every key of every artifact was edited, three ways *)
  Alcotest.(check bool)
    (Printf.sprintf "%d plan, %d dump and %d summary edits" edits_plans
       edits_dump edits_summary)
    true
    (edits_plans > 300 && edits_dump > 30 && edits_summary > 20)

(* ------------------------------------------------------------------ *)
(* Replay equivalence: executing the plan artifact reproduces the
   direct run, bit for bit *)

let reparse p =
  match parse (Simplan.print p) with
  | Ok p -> p
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_replay_churn16 () =
  let run plan =
    match (Simplan.execute plan).Simplan.result with
    | Simplan.Churn_done r -> r
    | _ -> Alcotest.fail "churn plan did not produce a churn outcome"
  in
  let plan = Simplan.churn_plan ~seed:42 ~nodes:16 () in
  let direct = run plan and replayed = run (reparse plan) in
  if replayed <> direct then
    Alcotest.fail "replayed churn16 run diverged from the direct run"

let test_replay_app () =
  let params = { Params.default with Params.nodes = 2 } in
  let plan = Simplan.app_plan ~params Simplan.Gemm_app Simplan.Drust in
  let run p =
    match (Simplan.execute p).Simplan.result with
    | Simplan.App_done { result; _ } -> result
    | _ -> Alcotest.fail "app plan did not produce an app outcome"
  in
  let direct = run plan and replayed = run (reparse plan) in
  if replayed <> direct then
    Alcotest.fail "replayed gemm run diverged from the direct run"

(* ------------------------------------------------------------------ *)
(* Cross-layer counter identities, read after [Protocol.audit] (the
   order perfbench reads them in, so an audit that counts breaks them):
   every cache miss is a protocol fetch, and every cache hit serves a
   read the protocol tagged [read_cached].  Hits can fall short of
   [read_cached]: reads through a held copy are tagged without a cache
   lookup. *)

let check_cache_identities plan =
  let cluster = (Simplan.execute plan).Simplan.cluster in
  Alcotest.(check (list string)) "audit clean" [] (P.audit cluster);
  let snap = Drust_obs.Metrics.snapshot (Cluster.metrics cluster) in
  let total = Drust_obs.Metrics.total snap in
  let read_cached =
    match
      Drust_obs.Metrics.find snap ~labels:[ ("op", "read_cached") ]
        "protocol.op_latency"
    with
    | Some (Drust_obs.Metrics.Histo h) -> h.Drust_obs.Metrics.h_count
    | _ -> 0
  in
  let fetches = total "protocol.fetches" and hits = total "cache.hits" in
  Alcotest.(check bool) "the run fetched" true (fetches > 0);
  Alcotest.(check int) "cache.misses = protocol.fetches" fetches
    (total "cache.misses");
  if hits > read_cached then
    Alcotest.failf "cache.hits %d > protocol.op.read_cached %d" hits
      read_cached

let test_identities_kvstore () =
  check_cache_identities
    (Simplan.app_plan
       ~params:{ Params.default with Params.nodes = 4 }
       Simplan.Kvstore_app Simplan.Drust)

let test_identities_churn16 () =
  check_cache_identities (Simplan.churn_plan ~seed:42 ~nodes:16 ())

(* ------------------------------------------------------------------ *)
(* Fuzz: clean batch, and the injected-bug shrink regression *)

(* The loop of [bench/main.exe fuzz], run sequentially: sample plans,
   test each, and shrink every failure to (verdict, shrunk plan, shrunk
   verdict). *)
let fuzz ~oracle ~seed ~count =
  List.filter_map
    (fun p ->
      let v = oracle p in
      if Fuzz.is_failure v then
        let shrunk, sv = Fuzz.shrink ~oracle p in
        Some (v, shrunk, sv)
      else None)
    (Fuzz.plans ~seed ~count ~max_nodes:8)

let test_fuzz_clean_batch () =
  let findings = fuzz ~oracle:Fuzz.default_oracle ~seed:2 ~count:3 in
  Alcotest.(check int) "no findings on the real simulator" 0
    (List.length findings)

(* Regression for the fuzzer's first real catch (seed 5, plan 7,
   shrunk): a partition overlapping a not-yet-detected crash made the
   promotion announcement in [Replication.fail_and_promote] unwind the
   controller daemon with an uncaught [Fabric.Node_down].  The shrunk
   plan is pinned verbatim and must execute cleanly, crash detected. *)
let compound_fault_plan_json =
  {|{
  "schema": "drust-simplan/v1",
  "name": "fuzz-s5-p007",
  "expect": "drust-bench-summary/v3",
  "sim": {
    "topology": {
      "nodes": 7,
      "cores_per_node": 4,
      "mem_per_node": 67108864,
      "ghz": 2.6,
      "seed": 694812
    },
    "system": "drust",
    "workload": {
      "kind": "failover",
      "nodes": 7,
      "keys": 38,
      "key_bytes": 8,
      "duration": 0.033904031372456178,
      "crash_t": 0.020940318828393263,
      "victim": 4,
      "bucket": 0.005,
      "think": 2.4073875077240208e-05
    },
    "faults": {
      "fault_seed": 694829,
      "events": [
        { "kind": "crash", "node": 4, "at": 0.020940318828393263 },
        {
          "kind": "partition",
          "group": [2],
          "at": 0.018087612347271437,
          "heal_at": 0.030082886812683805
        }
      ]
    }
  }
}|}

let test_compound_fault_regression () =
  let plan =
    match parse compound_fault_plan_json with
    | Ok p -> p
    | Error e -> Alcotest.fail ("pinned compound-fault plan: " ^ e)
  in
  let outcome = Simplan.execute ~sanitize:true plan in
  Alcotest.(check (list string)) "no DSan violations" [] outcome.Simplan.violations;
  match outcome.Simplan.result with
  | Simplan.Failover_done r ->
      Alcotest.(check bool) "ops completed" true (r.Scenario.total_ops > 0);
      Alcotest.(check bool) "crash detected" true
        (r.Scenario.detection_time <> None)
  | _ -> Alcotest.fail "compound-fault plan did not produce a failover outcome"

(* The injected protocol bug: a double-ownership violation synthesized
   through DSan's injection surface (the same entry points
   test_check.ml uses), standing in for a protocol that corrupts
   shadow state whenever the network partitions.  The oracle trips on
   any plan carrying a partition event and reports the injected
   violation verbatim — fully deterministic, so the shrink result can
   be pinned. *)
let injected_reports () =
  let cluster =
    Cluster.create
      {
        Params.default with
        Params.nodes = 4;
        cores_per_node = 4;
        mem_per_node = Drust_util.Units.mib 64;
      }
  in
  let t = Dsan.attach cluster in
  Fun.protect
    ~finally:(fun () -> Dsan.detach t)
    (fun () ->
      let g = Gaddr.make ~node:1 ~offset:4096 in
      Dsan.observe t ~time:0.0 ~node:1 ~thread:0
        (Tap.Create { g; size = 64 });
      Dsan.observe t ~time:2e-6 ~node:2 ~thread:1
        (Tap.Create { g; size = 64 });
      List.map Dsan.report_to_string (Dsan.violations t))

let has_partition (p : Simplan.t) =
  match p.Simplan.spec with
  | Simplan.Sim s ->
      List.exists
        (function Simplan.Partition _ -> true | _ -> false)
        s.Simplan.faults.Simplan.events
  | Simplan.Suite _ -> false

let test_fuzz_shrinks_injected_bug () =
  let reports = injected_reports () in
  Alcotest.(check bool) "the injection produced a DSan report" true
    (reports <> []);
  let oracle p = if has_partition p then Fuzz.Violations reports else Fuzz.Pass in
  let run () = fuzz ~oracle ~seed:1 ~count:12 in
  let findings = run () in
  Alcotest.(check bool) "the bug was found" true (findings <> []);
  let verdict, shrunk, shrunk_verdict = List.hd findings in
  Alcotest.(check bool) "original plan fails" true (Fuzz.is_failure verdict);
  Alcotest.(check bool) "shrunk plan still fails" true
    (Fuzz.is_failure shrunk_verdict);
  Alcotest.(check bool) "shrunk plan keeps the trigger" true
    (has_partition shrunk);
  (match Simplan.validate shrunk with
  | Ok () -> ()
  | Error errs ->
      Alcotest.failf "shrunk plan is invalid: %s" (String.concat "; " errs));
  (* Deterministic: a second identical run shrinks to the same plan. *)
  let findings' = run () in
  Alcotest.(check (list string))
    "shrink is deterministic"
    (List.map (fun (_, p, _) -> Simplan.print p) findings)
    (List.map (fun (_, p, _) -> Simplan.print p) findings');
  (* Pinned: the minimal plan for this seed, byte for byte.  A change
     here means the generator or shrinker changed behavior — review it
     deliberately, then re-pin. *)
  Alcotest.(check string) "pinned shrink result"
    "{\n\
    \  \"schema\": \"drust-simplan/v1\",\n\
    \  \"name\": \"fuzz-s1-p002\",\n\
    \  \"expect\": \"drust-bench-summary/v3\",\n\
    \  \"sim\": {\n\
    \    \"topology\": {\n\
    \      \"nodes\": 7,\n\
    \      \"cores_per_node\": 4,\n\
    \      \"mem_per_node\": 67108864,\n\
    \      \"ghz\": 2.6,\n\
    \      \"seed\": 55491\n\
    \    },\n\
    \    \"system\": \"drust\",\n\
    \    \"workload\": {\n\
    \      \"kind\": \"failover\",\n\
    \      \"nodes\": 7,\n\
    \      \"keys\": 1,\n\
    \      \"key_bytes\": 8,\n\
    \      \"duration\": 0.015138393623496163,\n\
    \      \"crash_t\": 0.012459352213429158,\n\
    \      \"victim\": 5,\n\
    \      \"bucket\": 0.005,\n\
    \      \"think\": 3.3908089078641308e-05\n\
    \    },\n\
    \    \"faults\": {\n\
    \      \"fault_seed\": 55508,\n\
    \      \"events\": [\n\
    \        { \"kind\": \"crash\", \"node\": 5, \"at\": 0.012459352213429158 },\n\
    \        {\n\
    \          \"kind\": \"partition\",\n\
    \          \"group\": [6],\n\
    \          \"at\": 0.0036337170543473169,\n\
    \          \"heal_at\": 0.0067341528701576857\n\
    \        }\n\
    \      ]\n\
    \    }\n\
    \  }\n\
     }\n"
    (Simplan.print shrunk)

let () =
  Alcotest.run "plan"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip over generated plans" `Quick
            test_roundtrip;
          Alcotest.test_case "generated plans validate" `Quick
            test_generated_plans_validate;
          Alcotest.test_case "generator is seed-deterministic" `Quick
            test_generator_deterministic;
          Alcotest.test_case "field_names sorted and complete" `Quick
            test_field_names_sorted;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "strictness sweep over every written key" `Quick
            test_strictness_sweep;
        ] );
      ( "validate",
        [ Alcotest.test_case "rejections" `Quick test_validate_rejects ] );
      ( "replay",
        [
          Alcotest.test_case "churn16 plan = direct run" `Slow
            test_replay_churn16;
          Alcotest.test_case "gemm plan replays identically" `Quick
            test_replay_app;
        ] );
      ( "counters",
        [
          Alcotest.test_case "kvstore cache = protocol" `Quick
            test_identities_kvstore;
          Alcotest.test_case "churn16 cache = protocol" `Quick
            test_identities_churn16;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean batch on the real simulator" `Slow
            test_fuzz_clean_batch;
          Alcotest.test_case "compound-fault plan runs clean (fuzz catch)"
            `Quick test_compound_fault_regression;
          Alcotest.test_case "injected bug is found and shrunk" `Quick
            test_fuzz_shrinks_injected_bug;
        ] );
    ]
