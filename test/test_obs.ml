(* Tests for the observability layer: the metrics registry, the span
   tracer, and the exporters (Chrome trace_event JSON, metrics JSONL). *)

module Metrics = Drust_obs.Metrics
module Span = Drust_obs.Span
module Export = Drust_obs.Export

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_counter_roundtrip () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~unit_:"ops" "test.ops" in
  Alcotest.(check int) "starts at 0" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "1 + 4" 5 (Metrics.value c)

let test_get_or_create_shares_handles () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~labels:[ ("node", "1") ] "test.shared" in
  let b = Metrics.counter m ~labels:[ ("node", "1") ] "test.shared" in
  Metrics.incr a;
  Metrics.incr b;
  Alcotest.(check int) "same instrument" 2 (Metrics.value a);
  (* Different labels: a distinct series. *)
  let c = Metrics.counter m ~labels:[ ("node", "2") ] "test.shared" in
  Alcotest.(check int) "distinct series" 0 (Metrics.value c)

let test_labels_normalized () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~labels:[ ("a", "1"); ("b", "2") ] "test.norm" in
  let b = Metrics.counter m ~labels:[ ("b", "2"); ("a", "1") ] "test.norm" in
  Metrics.incr a;
  Alcotest.(check int) "label order irrelevant" 1 (Metrics.value b)

let test_kind_mismatch_rejected () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "test.kind");
  Alcotest.(check bool) "counter-then-gauge raises" true
    (try
       ignore (Metrics.gauge m "test.kind");
       false
     with Invalid_argument _ -> true)

let test_histogram_bucketing () =
  let m = Metrics.create () in
  let h =
    Metrics.histogram m ~buckets:[| 1.0; 10.0; 100.0 |] ~unit_:"s" "test.lat"
  in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 5.0; 50.0; 5000.0 ];
  match Metrics.find (Metrics.snapshot m) "test.lat" with
  | Some (Metrics.Histo hs) ->
      Alcotest.(check int) "count" 5 hs.Metrics.h_count;
      Alcotest.(check (float 1e-9)) "sum" 5060.5 hs.Metrics.h_sum;
      Alcotest.(check (float 1e-9)) "min" 0.5 hs.Metrics.h_min;
      Alcotest.(check (float 1e-9)) "max" 5000.0 hs.Metrics.h_max;
      let counts = List.map snd hs.Metrics.h_buckets in
      Alcotest.(check (list int)) "per-bucket + overflow" [ 1; 2; 1; 1 ] counts;
      (match List.rev hs.Metrics.h_buckets with
      | (bound, _) :: _ ->
          Alcotest.(check bool) "overflow bound is inf" true
            (bound = infinity)
      | [] -> Alcotest.fail "no buckets")
  | _ -> Alcotest.fail "histogram sample missing"

let test_snapshot_sorted_and_diff () =
  let m = Metrics.create () in
  let a = Metrics.counter m "test.b" in
  let b = Metrics.counter m "test.a" in
  let g = Metrics.gauge m "test.g" in
  Metrics.incr a;
  Metrics.set g 1.0;
  let before = Metrics.snapshot m in
  Alcotest.(check (list string)) "sorted by name"
    [ "test.a"; "test.b"; "test.g" ]
    (List.map (fun s -> s.Metrics.s_name) before);
  Metrics.add a 2;
  Metrics.incr b;
  Metrics.set g 7.5;
  let after = Metrics.snapshot m in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check int) "counter delta" 2 (Metrics.total d "test.b");
  Alcotest.(check int) "counter delta from 0" 1 (Metrics.total d "test.a");
  match Metrics.find d "test.g" with
  | Some (Metrics.Level v) ->
      Alcotest.(check (float 0.0)) "gauge keeps after" 7.5 v
  | _ -> Alcotest.fail "gauge sample missing"

let test_names_sorted_distinct () =
  let m = Metrics.create () in
  ignore (Metrics.counter m ~labels:[ ("node", "0") ] "test.x");
  ignore (Metrics.counter m ~labels:[ ("node", "1") ] "test.x");
  ignore (Metrics.gauge m "test.a");
  Alcotest.(check (list string)) "distinct sorted" [ "test.a"; "test.x" ]
    (Metrics.names m)

(* ------------------------------------------------------------------ *)
(* Span tracer *)

let manual_clock () =
  let now = ref 0.0 in
  (now, fun () -> !now)

let test_span_disabled_by_default () =
  let _, clock = manual_clock () in
  let t = Span.create ~clock () in
  Alcotest.(check bool) "disabled" false (Span.is_enabled t);
  Span.instant t ~category:"x" "ignored";
  let sp = Span.start t ~category:"x" "also ignored" in
  Span.finish t sp;
  Alcotest.(check int) "count stays 0" 0 (Span.count t);
  Alcotest.(check int) "no events" 0 (List.length (Span.events t))

let test_span_durations_and_nesting () =
  let now, clock = manual_clock () in
  let t = Span.create ~clock () in
  Span.enable t;
  let outer = Span.start t ~track:2 ~category:"fabric" "outer" in
  now := 1.0;
  Alcotest.(check int) "one open span" 1 (Span.depth t ~track:2);
  let inner = Span.start t ~track:2 ~category:"fabric" "inner" in
  Alcotest.(check int) "nested" 2 (Span.depth t ~track:2);
  now := 3.0;
  Span.finish t inner;
  now := 10.0;
  Span.finish t outer;
  Alcotest.(check int) "drained" 0 (Span.depth t ~track:2);
  (match Span.events t with
  | [ i; o ] ->
      (* Completes are recorded at finish time: inner first. *)
      Alcotest.(check string) "inner first" "inner" i.Span.name;
      Alcotest.(check (float 1e-9)) "inner ts" 1.0 i.Span.ts;
      Alcotest.(check (float 1e-9)) "inner dur" 2.0 i.Span.dur;
      Alcotest.(check int) "inner depth" 2 i.Span.depth;
      Alcotest.(check (float 1e-9)) "outer dur" 10.0 o.Span.dur;
      Alcotest.(check int) "outer depth" 1 o.Span.depth
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
  match Span.duration_stats t with
  | [ ("fabric", st) ] ->
      Alcotest.(check int) "2 completes" 2 st.Span.d_count;
      Alcotest.(check (float 1e-9)) "total" 12.0 st.Span.d_total;
      Alcotest.(check (float 1e-9)) "min" 2.0 st.Span.d_min;
      Alcotest.(check (float 1e-9)) "max" 10.0 st.Span.d_max
  | l -> Alcotest.failf "expected 1 category, got %d" (List.length l)

let test_span_ring_overwrites () =
  let _, clock = manual_clock () in
  let t = Span.create ~capacity:4 ~clock () in
  Span.enable t;
  for i = 1 to 10 do
    Span.instant t ~category:"n" (string_of_int i)
  done;
  Alcotest.(check int) "total counts all" 10 (Span.count t);
  Alcotest.(check (list string)) "last four, oldest first"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun e -> e.Span.name) (Span.events t))

(* ------------------------------------------------------------------ *)
(* Exporters.  A tiny structural JSON check: balanced braces/brackets
   outside strings, plus field probes — not a full parser, but enough
   to catch broken quoting or truncation. *)

let check_balanced_json s =
  let depth = ref 0 and in_str = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !in_str then
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_str := false
        else ()
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' -> decr depth
        | _ -> ())
    s;
  Alcotest.(check int) "balanced nesting" 0 !depth;
  Alcotest.(check bool) "string closed" false !in_str

let test_chrome_trace_shape () =
  let now, clock = manual_clock () in
  let t = Span.create ~clock () in
  Span.enable t;
  (* Deliberately record completes out of start order: "late" starts
     first but finishes last, so raw ring order is not ts order. *)
  let late = Span.start t ~track:1 ~category:"fabric" "late" in
  now := 1.0;
  let early =
    Span.start t ~track:0 ~category:"protocol"
      ~args:[ ("g", "0x2a"); ("quote", "a\"b") ]
      "early"
  in
  now := 2.0;
  Span.finish t early;
  now := 5.0;
  Span.finish t late;
  Span.instant t ~track:1 ~category:"controller" "mark";
  let json = Export.chrome_trace ~process_name:"test-proc" t in
  check_balanced_json json;
  Alcotest.(check bool) "has traceEvents" true
    (String.length json > 0
    && Astring.String.is_infix ~affix:"\"traceEvents\"" json);
  Alcotest.(check bool) "names the process" true
    (Astring.String.is_infix ~affix:"test-proc" json);
  Alcotest.(check bool) "escapes arg quotes" true
    (Astring.String.is_infix ~affix:{|a\"b|} json);
  Alcotest.(check bool) "complete event" true
    (Astring.String.is_infix ~affix:{|"ph":"X"|} json);
  Alcotest.(check bool) "instant event" true
    (Astring.String.is_infix ~affix:{|"ph":"i"|} json);
  (* Body events must be sorted by ts: "early" (ts 1.0) before "late"
     (ts 0.0)?  No — late STARTED at 0.0, so it must come first even
     though it finished last. *)
  let late_pos =
    Astring.String.find_sub ~sub:{|"name":"late"|} json |> Option.get
  in
  let early_pos =
    Astring.String.find_sub ~sub:{|"name":"early"|} json |> Option.get
  in
  Alcotest.(check bool) "sorted by start ts" true (late_pos < early_pos)

let test_metrics_jsonl_shape () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~labels:[ ("node", "3") ] ~unit_:"ops" "t.c" in
  Metrics.add c 7;
  Metrics.set (Metrics.gauge m "t.g") 1.5;
  Metrics.observe (Metrics.histogram m ~buckets:[| 1.0 |] "t.h") 0.5;
  let out = Export.metrics_jsonl ~time:2.5 (Metrics.snapshot m) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  Alcotest.(check int) "one line per sample" 3 (List.length lines);
  (* Every line is one JSON object to the shared strict parser — the
     histogram's "inf" overflow bound included, spelled as a string. *)
  List.iter
    (fun l ->
      match Drust_util.Json.parse l with
      | Drust_util.Json.Obj _ -> ()
      | _ -> Alcotest.failf "not a JSON object: %s" l
      | exception Drust_util.Json.Parse_error e ->
          Alcotest.failf "unparseable line (%s): %s" e l)
    lines;
  Alcotest.(check bool) "counter line" true
    (List.exists
       (fun l ->
         Astring.String.is_infix ~affix:{|"name":"t.c"|} l
         && Astring.String.is_infix ~affix:{|"node":"3"|} l
         && Astring.String.is_infix ~affix:{|"value":7|} l
         && Astring.String.is_infix ~affix:{|"time":2.5|} l)
       lines);
  Alcotest.(check bool) "histogram carries count" true
    (List.exists
       (fun l ->
         Astring.String.is_infix ~affix:{|"name":"t.h"|} l
         && Astring.String.is_infix ~affix:{|"count":1|} l)
       lines)

let test_chrome_trace_thread_metadata () =
  let now, clock = manual_clock () in
  let t = Span.create ~clock () in
  Span.enable t;
  Span.instant t ~track:2 ~category:"n" "a";
  now := 1.0;
  Span.instant t ~track:11 ~category:"n" "b";
  let json = Export.chrome_trace t in
  check_balanced_json json;
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("has " ^ affix) true
        (Astring.String.is_infix ~affix json))
    [
      {|"name":"process_name"|};
      {|"name":"thread_name"|};
      {|"name":"node 2"|};
      {|"name":"node 11"|};
      {|"name":"thread_sort_index"|};
      {|"sort_index":11|};
    ]

(* Trace and metrics strings go through the shared JSON codec. *)
let test_json_escape () =
  Alcotest.(check string) "quotes and control chars" {|a\"b\\c\nd|}
    (Drust_util.Json.escape "a\"b\\c\nd")

(* ------------------------------------------------------------------ *)
(* Integration: a traced cluster run produces consistent data *)

let test_cluster_trace_integration () =
  let module Cluster = Drust_machine.Cluster in
  let module Params = Drust_machine.Params in
  let module Fabric = Drust_net.Fabric in
  let cluster = Cluster.create { Params.default with Params.nodes = 2 } in
  let spans = Cluster.spans cluster in
  Span.enable spans;
  ignore
    (Drust_sim.Engine.spawn (Cluster.engine cluster) (fun () ->
         Fabric.rdma_read (Cluster.fabric cluster) ~from:0 ~target:1 ~bytes:256));
  Cluster.run cluster;
  (* A traced cross-node READ is three causally-linked events: the wire
     sub-span, the target-side SERVE instant, and the verb span (parents
     record after children since completes land at finish time). *)
  Alcotest.(check int) "verb + wire sub-span + serve instant" 3
    (Span.count spans);
  let events = Span.events spans in
  let read =
    match List.filter (fun e -> e.Span.name = "READ") events with
    | [ e ] -> e
    | l -> Alcotest.failf "expected 1 READ event, got %d" (List.length l)
  in
  Alcotest.(check string) "category" "fabric" read.Span.category;
  Alcotest.(check int) "issuing node's track" 0 read.Span.track;
  Alcotest.(check bool) "positive latency" true (read.Span.dur > 0.0);
  Alcotest.(check bool) "READ is a root" true (read.Span.parent = 0);
  let wire = List.find (fun e -> e.Span.name = "wire") events in
  Alcotest.(check int) "wire nests under READ" read.Span.id wire.Span.parent;
  Alcotest.(check string) "wire category" "net.wire" wire.Span.category;
  let serve = List.find (fun e -> e.Span.name = "SERVE(READ)") events in
  Alcotest.(check int) "serve lands on target track" 1 serve.Span.track;
  Alcotest.(check int) "serve nests under READ" read.Span.id serve.Span.parent;
  Alcotest.(check (list int)) "flow edge READ -> SERVE" read.Span.flow_out
    serve.Span.flow_in;
  Alcotest.(check bool) "flow edge minted" true (read.Span.flow_out <> []);
  let snap = Metrics.snapshot (Cluster.metrics cluster) in
  Alcotest.(check int) "fabric.reads counted" 1
    (Metrics.total snap "fabric.reads");
  Alcotest.(check int) "bytes counted" 256
    (Metrics.total snap "fabric.bytes_out")

(* A traced verb that raises still records its span exactly once and
   leaves no span open: a READ NAKed for a stale epoch, an RPC whose
   handler raises, and an atomic whose update raises. *)
let test_traced_verbs_that_raise () =
  let module Cluster = Drust_machine.Cluster in
  let module Params = Drust_machine.Params in
  let module Fabric = Drust_net.Fabric in
  let cluster = Cluster.create { Params.default with Params.nodes = 2 } in
  let spans = Cluster.spans cluster in
  Span.enable spans;
  let fabric = Cluster.fabric cluster in
  Fabric.set_epoch_source fabric (Some (fun () -> 2));
  let raised = ref [] in
  let attempt verb f =
    match f () with
    | () -> ()
    | exception (Fabric.Stale_epoch _ | Failure _) -> raised := verb :: !raised
  in
  ignore
    (Drust_sim.Engine.spawn (Cluster.engine cluster) (fun () ->
         attempt "READ" (fun () ->
             Fabric.rdma_read ~epoch:1 fabric ~from:0 ~target:1 ~bytes:64);
         attempt "RPC" (fun () ->
             Fabric.rpc fabric ~from:0 ~target:1 ~req_bytes:64 ~resp_bytes:64
               (fun () -> failwith "handler"));
         attempt "ATOMIC" (fun () ->
             Fabric.rdma_atomic fabric ~from:0 ~target:1 (fun () ->
                 failwith "update"))));
  Cluster.run cluster;
  let verbs = [ "READ"; "RPC"; "ATOMIC" ] in
  Alcotest.(check (list string)) "every verb raised" verbs (List.rev !raised);
  let events = Span.events spans in
  List.iter
    (fun verb ->
      Alcotest.(check int) (verb ^ " span recorded once") 1
        (List.length
           (List.filter
              (fun e -> e.Span.name = verb && e.Span.kind = Span.Complete)
              events)))
    verbs;
  List.iter
    (fun track ->
      Alcotest.(check int)
        (Printf.sprintf "no span left open on node %d" track)
        0 (Span.depth spans ~track))
    [ 0; 1 ]

(* ------------------------------------------------------------------ *)
(* Quantile estimation and histogram merging *)

let find_histo snap ?labels name =
  match Metrics.find snap ?labels name with
  | Some (Metrics.Histo h) -> h
  | _ -> Alcotest.failf "histogram %s missing from snapshot" name

let test_quantile_accuracy () =
  (* Uniform samples over fine linear buckets: the interpolated
     estimate must sit within two bucket widths of the exact sorted
     percentile. *)
  let m = Metrics.create () in
  let buckets = Array.init 99 (fun i -> float_of_int (i + 1) /. 100.0) in
  let h = Metrics.histogram m ~buckets "test.quant" in
  let rng = Drust_util.Rng.create ~seed:11 in
  let samples = Array.init 2000 (fun _ -> Drust_util.Rng.float rng 1.0) in
  Array.iter (Metrics.observe h) samples;
  let hs = find_histo (Metrics.snapshot m) "test.quant" in
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let exact q =
    let n = Array.length sorted in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    sorted.(rank - 1)
  in
  let q_exn h q =
    match Metrics.quantile h q with
    | Some v -> v
    | None -> Alcotest.fail "quantile on non-empty histogram returned None"
  in
  List.iter
    (fun q ->
      let est = q_exn hs q in
      let ex = exact q in
      if Float.abs (est -. ex) > 0.02 then
        Alcotest.failf "q=%.3f: estimate %.4f vs exact %.4f" q est ex)
    [ 0.1; 0.25; 0.5; 0.9; 0.95; 0.99; 0.999 ];
  (* Monotone in q, and clamped to the observed range. *)
  let p50 = q_exn hs 0.5 and p95 = q_exn hs 0.95 and p99 = q_exn hs 0.99 in
  Alcotest.(check bool) "p50 <= p95 <= p99" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "within [min,max]" true
    (q_exn hs 0.0 >= hs.Metrics.h_min && q_exn hs 1.0 <= hs.Metrics.h_max);
  (* Degenerate inputs. *)
  ignore (Metrics.histogram m ~buckets "test.quant_empty");
  let empty = find_histo (Metrics.snapshot m) "test.quant_empty" in
  Alcotest.(check bool) "empty -> None" true
    (Metrics.quantile empty 0.5 = None);
  Alcotest.(check bool) "q outside [0,1] raises" true
    (try
       ignore (Metrics.quantile hs 1.5);
       false
     with Invalid_argument _ -> true)

let check_same_histo msg (a : Metrics.histo) (b : Metrics.histo) =
  Alcotest.(check int) (msg ^ ": count") a.Metrics.h_count b.Metrics.h_count;
  Alcotest.(check (float 1e-9)) (msg ^ ": sum") a.Metrics.h_sum b.Metrics.h_sum;
  Alcotest.(check (list int))
    (msg ^ ": bucket counts")
    (List.map snd a.Metrics.h_buckets)
    (List.map snd b.Metrics.h_buckets);
  Alcotest.(check (float 1e-9)) (msg ^ ": min") a.Metrics.h_min b.Metrics.h_min;
  Alcotest.(check (float 1e-9)) (msg ^ ": max") a.Metrics.h_max b.Metrics.h_max

let test_merge_histos () =
  let m = Metrics.create () in
  let buckets = [| 1.0; 2.0; 5.0; 10.0 |] in
  let mk part =
    Metrics.histogram m ~buckets ~labels:[ ("part", part) ] "test.merge"
  in
  let h1 = mk "a" and h2 = mk "b" and h3 = mk "c" in
  ignore (mk "empty");
  List.iter (Metrics.observe h1) [ 0.5; 1.5; 3.0 ];
  List.iter (Metrics.observe h2) [ 4.0; 20.0 ];
  List.iter (Metrics.observe h3) [ 0.1; 9.0; 9.5 ];
  let snap = Metrics.snapshot m in
  let get part = find_histo snap ~labels:[ ("part", part) ] "test.merge" in
  let a = get "a" and b = get "b" and c = get "c" and e = get "empty" in
  (* Associative: (a+b)+c = a+(b+c), including min/max and therefore
     every quantile. *)
  let l = Metrics.merge_histos (Metrics.merge_histos a b) c in
  let r = Metrics.merge_histos a (Metrics.merge_histos b c) in
  check_same_histo "associativity" l r;
  Alcotest.(check int) "all samples" 8 l.Metrics.h_count;
  List.iter
    (fun q ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "quantile %.2f agrees" q)
        (Metrics.quantile l q) (Metrics.quantile r q))
    [ 0.5; 0.95; 0.99 ];
  (* Commutative on the same pair; empty side is the identity. *)
  check_same_histo "commutativity" (Metrics.merge_histos a b)
    (Metrics.merge_histos b a);
  check_same_histo "empty identity" a (Metrics.merge_histos a e);
  check_same_histo "empty identity (left)" a (Metrics.merge_histos e a);
  (* Differing bounds are a caller bug. *)
  ignore (Metrics.histogram m ~buckets:[| 1.0; 2.0 |] "test.merge_other");
  let other = find_histo (Metrics.snapshot m) "test.merge_other" in
  Alcotest.(check bool) "bound mismatch raises" true
    (try
       ignore (Metrics.merge_histos a other);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Critical-path profiler *)

module Cp = Drust_obs.Critical_path

let test_critical_path_attribution () =
  let now, clock = manual_clock () in
  let t = Span.create ~clock () in
  Span.enable t;
  (* op [0,10]; wire child [2,5]; compute child [6,8] with a queue
     grandchild [6,7].  Self times: op 5, wire 3, compute 1, queue 1. *)
  let root = Span.start t ~track:0 ~category:"protocol" "op" in
  now := 2.0;
  let w = Span.start t ~parent:root ~track:0 ~category:"net.wire" "wire" in
  now := 5.0;
  Span.finish t w;
  now := 6.0;
  let c =
    Span.start t ~parent:root ~track:0 ~category:"cpu.compute" "compute"
  in
  let q = Span.start t ~parent:c ~track:0 ~category:"cpu.queue" "q" in
  now := 7.0;
  Span.finish t q;
  now := 8.0;
  Span.finish t c;
  now := 10.0;
  Span.finish t root;
  match Cp.analyze (Span.events t) with
  | [ p ] ->
      Alcotest.(check string) "root" "op" p.Cp.root.Span.name;
      Alcotest.(check (float 1e-9)) "total" 10.0 p.Cp.total;
      Alcotest.(check int) "subtree size" 4 p.Cp.node_count;
      let seg s = List.assoc s p.Cp.segments in
      Alcotest.(check (float 1e-9)) "protocol self" 5.0 (seg Cp.Protocol);
      Alcotest.(check (float 1e-9)) "wire" 3.0 (seg Cp.Wire);
      Alcotest.(check (float 1e-9)) "compute self" 1.0 (seg Cp.Compute);
      Alcotest.(check (float 1e-9)) "queue" 1.0 (seg Cp.Queue);
      Alcotest.(check (float 1e-9)) "serialize absent" 0.0 (seg Cp.Serialize);
      (* The invariant: segments telescope to the end-to-end total. *)
      Alcotest.(check (float 1e-9)) "segments sum to total" p.Cp.total
        (Cp.segments_sum p)
  | l -> Alcotest.failf "expected 1 path, got %d" (List.length l)

let test_critical_path_top_k_and_report () =
  let now, clock = manual_clock () in
  let t = Span.create ~clock () in
  Span.enable t;
  let short = Span.start t ~track:0 ~category:"protocol" "short_op" in
  now := 1.0;
  Span.finish t short;
  let long_ = Span.start t ~track:0 ~category:"protocol" "long_op" in
  now := 6.0;
  Span.finish t long_;
  let paths = Cp.analyze (Span.events t) in
  Alcotest.(check int) "two roots" 2 (List.length paths);
  (match Cp.top_k 1 paths with
  | [ p ] -> Alcotest.(check string) "longest first" "long_op" p.Cp.root.Span.name
  | l -> Alcotest.failf "expected 1 path, got %d" (List.length l));
  let report = Cp.report ~k:2 (Span.events t) in
  Alcotest.(check bool) "#1 is the longest" true
    (Astring.String.is_prefix ~affix:"#1 long_op" report);
  Alcotest.(check bool) "#2 follows" true
    (Astring.String.is_infix ~affix:"#2 short_op" report)

(* A small cross-node protocol workload on a traced cluster, reduced to
   its critical-path report. *)
let traced_workload_report () =
  let module Cluster = Drust_machine.Cluster in
  let module Params = Drust_machine.Params in
  let module Ctx = Drust_machine.Ctx in
  let module P = Drust_core.Protocol in
  let module Univ = Drust_util.Univ in
  let tag : int Univ.tag = Univ.create_tag ~name:"obs.cp" in
  let cluster = Cluster.create { Params.default with Params.nodes = 2 } in
  let spans = Cluster.spans cluster in
  Span.enable spans;
  ignore
    (Drust_sim.Engine.spawn (Cluster.engine cluster) (fun () ->
         let ctx = Ctx.make cluster ~node:0 in
         let o = P.create_on ctx ~node:1 ~size:128 (Univ.pack tag 0) in
         for i = 1 to 5 do
           ignore (P.owner_read ctx o);
           P.owner_write ctx o (Univ.pack tag i)
         done;
         P.drop_owner ctx o));
  Cluster.run cluster;
  Cp.report ~k:5 (Span.events spans)

let test_critical_path_jobs_deterministic () =
  let seq = traced_workload_report () in
  Alcotest.(check bool) "report is non-empty" true (String.length seq > 0);
  Alcotest.(check bool) "reports protocol ops" true
    (Astring.String.is_infix ~affix:"[protocol]" seq);
  (* The same workload fanned over a 4-domain pool must render the
     byte-identical report: span ids and flow ids are per-tracer, so
     domain scheduling cannot leak in. *)
  let par =
    Drust_experiments.Parallel.map ~jobs:4
      (fun () -> traced_workload_report ())
      [ (); (); (); () ]
  in
  List.iter (fun r -> Alcotest.(check string) "jobs-4 identical" seq r) par

(* ------------------------------------------------------------------ *)
(* Chrome-trace flow events *)

let count_infix ~affix s =
  let n = String.length affix in
  let rec go acc i =
    if i + n > String.length s then acc
    else if String.sub s i n = affix then go (acc + 1) (i + 1)
    else go acc (i + 1)
  in
  go 0 0

let test_chrome_trace_flow_events () =
  let now, clock = manual_clock () in
  let t = Span.create ~clock () in
  Span.enable t;
  let fid = Span.fresh_flow_id t in
  Span.instant t ~track:0 ~flow_out:[ fid ] ~category:"fabric" "send";
  now := 1.0;
  Span.instant t ~track:1 ~flow_in:[ fid ] ~category:"fabric" "recv";
  (* A flow id with no consumer must not emit a dangling arrow. *)
  let dangling = Span.fresh_flow_id t in
  Span.instant t ~track:0 ~flow_out:[ dangling ] ~category:"fabric" "lost";
  let json = Export.chrome_trace t in
  check_balanced_json json;
  Alcotest.(check int) "one flow start" 1 (count_infix ~affix:{|"ph":"s"|} json);
  Alcotest.(check int) "one flow finish" 1 (count_infix ~affix:{|"ph":"f"|} json);
  Alcotest.(check bool) "binds at enclosing slice end" true
    (Astring.String.is_infix ~affix:{|"bp":"e"|} json);
  Alcotest.(check int) "both arrows in the flow category" 2
    (count_infix ~affix:{|"cat":"flow"|} json)

(* ------------------------------------------------------------------ *)
(* Profiling is strictly observational: fig5 with every cluster traced
   prints byte-identical output to the unprofiled run. *)

let capture_stdout f =
  let tmp = Filename.temp_file "obs_cap" ".out" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved;
    Unix.close fd
  in
  let r =
    try f ()
    with e ->
      restore ();
      Sys.remove tmp;
      raise e
  in
  restore ();
  let ic = open_in_bin tmp in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  (r, s)

let test_profiled_fig5_bit_identical () =
  let module Fig5 = Drust_experiments.Fig5 in
  let module Cluster = Drust_machine.Cluster in
  let (), plain =
    capture_stdout (fun () -> ignore (Fig5.run ~node_counts:[ 1; 2 ] ()))
  in
  Cluster.set_create_hook (Some (fun c -> Span.enable (Cluster.spans c)));
  let (), profiled =
    Fun.protect
      ~finally:(fun () -> Cluster.set_create_hook None)
      (fun () ->
        capture_stdout (fun () -> ignore (Fig5.run ~node_counts:[ 1; 2 ] ())))
  in
  if not (String.equal plain profiled) then begin
    let n = min (String.length plain) (String.length profiled) in
    let i = ref 0 in
    while !i < n && plain.[!i] = profiled.[!i] do
      incr i
    done;
    Alcotest.failf
      "profiled fig5 stdout diverges at byte %d (lengths %d vs %d): %S vs %S"
      !i (String.length plain) (String.length profiled)
      (String.sub plain !i (min 60 (String.length plain - !i)))
      (String.sub profiled !i (min 60 (String.length profiled - !i)))
  end

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter roundtrip" `Quick test_counter_roundtrip;
          Alcotest.test_case "get-or-create shares" `Quick
            test_get_or_create_shares_handles;
          Alcotest.test_case "labels normalized" `Quick test_labels_normalized;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch_rejected;
          Alcotest.test_case "histogram bucketing" `Quick
            test_histogram_bucketing;
          Alcotest.test_case "snapshot + diff" `Quick
            test_snapshot_sorted_and_diff;
          Alcotest.test_case "names" `Quick test_names_sorted_distinct;
        ] );
      ( "span",
        [
          Alcotest.test_case "disabled by default" `Quick
            test_span_disabled_by_default;
          Alcotest.test_case "durations + nesting" `Quick
            test_span_durations_and_nesting;
          Alcotest.test_case "ring overwrites" `Quick test_span_ring_overwrites;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
          Alcotest.test_case "metrics jsonl shape" `Quick
            test_metrics_jsonl_shape;
          Alcotest.test_case "chrome thread metadata" `Quick
            test_chrome_trace_thread_metadata;
          Alcotest.test_case "json escape" `Quick test_json_escape;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "estimate accuracy" `Quick test_quantile_accuracy;
          Alcotest.test_case "merge histograms" `Quick test_merge_histos;
        ] );
      ( "critical-path",
        [
          Alcotest.test_case "segment attribution" `Quick
            test_critical_path_attribution;
          Alcotest.test_case "top-k + report" `Quick
            test_critical_path_top_k_and_report;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_critical_path_jobs_deterministic;
        ] );
      ( "flow",
        [
          Alcotest.test_case "chrome flow arrows" `Quick
            test_chrome_trace_flow_events;
        ] );
      ( "integration",
        [
          Alcotest.test_case "traced cluster run" `Quick
            test_cluster_trace_integration;
          Alcotest.test_case "profiled fig5 bit-identical" `Quick
            test_profiled_fig5_bit_identical;
          Alcotest.test_case "traced verbs that raise" `Quick
            test_traced_verbs_that_raise;
        ] );
    ]
