(* Tests for the flight recorder (lib/obs/flight): the per-node black-box
   rings, the versioned dump codec, automatic dumps on failure, and the
   forensics timeline renderers.

   The last test is the seeded regression the ISSUE pins: a real protocol
   workload plus an injected DSan stale-cache-read violation must
   auto-write a *.flight.json dump from which the ownership timeline of
   the offending object is reconstructed — from the dump alone, no
   re-run. *)

module Flight = Drust_obs.Flight
module Engine = Drust_sim.Engine
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module P = Drust_core.Protocol
module Gaddr = Drust_memory.Gaddr
module Tap = Drust_memory.Tap
module Cache = Drust_memory.Cache
module Univ = Drust_util.Univ
module Dsan = Drust_check.Dsan

let int_tag : int Univ.tag = Univ.create_tag ~name:"int"
let pack = Univ.pack int_tag

let small_params nodes =
  {
    Params.default with
    Params.nodes;
    cores_per_node = 4;
    mem_per_node = Drust_util.Units.mib 64;
  }

let in_cluster ?(nodes = 4) body =
  let cluster = Cluster.create (small_params nodes) in
  let result = ref None in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         result := Some (body cluster)));
  Cluster.run cluster;
  match !result with Some v -> v | None -> Alcotest.fail "body did not run"

let in_temp_dump_dir f =
  let dir = Filename.temp_file "flight" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Flight.set_dump_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Flight.set_dump_dir None;
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* Where [Flight.auto_dump] writes a recorder labelled [label]. *)
let dump_path dir label = Filename.concat dir (label ^ ".flight.json")

(* Decode dump text the way [forensics] does: from a file, by
   [Flight.load]; an error comes back without its file prefix (every
   error must carry one). *)
let load_text s =
  let path = Filename.temp_file "flight" ".flight.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      Result.map_error
        (fun m ->
          match Astring.String.cut ~sep:(path ^ ": ") m with
          | Some ("", rest) -> rest
          | _ -> Alcotest.failf "error %S does not name the file" m)
        (Flight.load ~path))

let contains ~affix s = Astring.String.is_infix ~affix s

let check_line msg ~affix lines =
  Alcotest.(check bool)
    (Printf.sprintf "%s (looking for %S)" msg affix)
    true
    (List.exists (contains ~affix) lines)

(* ------------------------------------------------------------------ *)
(* Kind table *)

(* The protocol records its outcome codes 0..8 ([k_read_local] ..
   [k_drop]) untranslated and indexes its latency histograms by them. *)
let test_kind_table_pins_protocol_codes () =
  Alcotest.(check int) "read_local is code 0" 0 Flight.k_read_local;
  Alcotest.(check int) "every kind code is named"
    (Array.length Flight.kind_names - 1)
    Flight.k_dsan_violation

(* ------------------------------------------------------------------ *)
(* The ring *)

let test_ring_wraps_and_merges () =
  let metrics = Drust_obs.Metrics.create () in
  let t = Flight.create ~cap:4 ~metrics ~nodes:2 () in
  let recorded () =
    match
      Drust_obs.Metrics.find (Drust_obs.Metrics.snapshot metrics) "flight.events"
    with
    | Some (Drust_obs.Metrics.Count n) -> n
    | _ -> Alcotest.fail "flight.events missing"
  in
  for i = 1 to 10 do
    Flight.record t ~node:0 ~time:(float_of_int i) ~kind:Flight.k_fab_send
      ~a:1 ~b:i ~c:0 ~d:0
  done;
  Flight.record t ~node:1 ~time:99.0 ~kind:Flight.k_view_change ~a:7 ~b:0
    ~c:0 ~d:0;
  Alcotest.(check int) "recorded counts overflow too" 11 (recorded ());
  let evs = Flight.events t in
  Alcotest.(check int) "cap survivors + the other node" 5 (List.length evs);
  Alcotest.(check (list int)) "last cap events, record order"
    [ 7; 8; 9; 10 ]
    (List.filter_map
       (fun e ->
         if e.Flight.ev_node = 0 then Some e.Flight.ev_b else None)
       evs);
  (match List.rev evs with
  | last :: _ ->
      Alcotest.(check int) "cross-node merge keeps true order" 1
        last.Flight.ev_node
  | [] -> Alcotest.fail "no events");
  (* The live-ring tail: the newest matching events across nodes, in
     record order, skipping kinds the filter rejects. *)
  Flight.record t ~node:1 ~time:100.0 ~kind:Flight.k_fab_read ~a:0 ~b:64
    ~c:0 ~d:0;
  Alcotest.(check (list (pair int int))) "recent fabric verbs"
    [ (0, 9); (0, 10); (1, 64) ]
    (List.map
       (fun e -> (e.Flight.ev_node, e.Flight.ev_b))
       (Flight.recent t ~n:3 ~kinds:(fun k ->
            k >= Flight.k_fab_read && k <= Flight.k_fab_send)));
  (* Out-of-range nodes and disabled recorders drop silently. *)
  Flight.record t ~node:9 ~time:0.0 ~kind:0 ~a:0 ~b:0 ~c:0 ~d:0;
  Flight.set_enabled t false;
  Flight.record t ~node:0 ~time:0.0 ~kind:0 ~a:0 ~b:0 ~c:0 ~d:0;
  Alcotest.(check int) "disabled drops" 12 (recorded ());
  Flight.set_enabled t true

(* ------------------------------------------------------------------ *)
(* Dump codec *)

let test_dump_roundtrip () =
  in_temp_dump_dir @@ fun dir ->
  let t = Flight.create ~cap:8 ~nodes:3 () in
  Flight.set_label t "codec-test";
  Flight.record t ~node:0 ~time:1.25e-6 ~kind:Flight.k_create ~a:4096 ~b:0
    ~c:0 ~d:64;
  Flight.record t ~node:2 ~time:2.5e-6 ~kind:Flight.k_read_fetch ~a:4096
    ~b:0 ~c:0 ~d:0;
  Flight.record t ~node:0 ~time:3.75e-6 ~kind:Flight.k_write_bump ~a:4096
    ~b:4096 ~c:1 ~d:0;
  Flight.record t ~node:1 ~time:4.0e-6 ~kind:Flight.k_fab_timeout ~a:2 ~b:0
    ~c:0 ~d:0;
  Alcotest.(check bool) "dump written" true
    (Flight.auto_dump t ~reason:"unit test" ~object_:4096 ~now:5.0e-6 ());
  (match Flight.load ~path:(dump_path dir "codec-test") with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok d ->
      Alcotest.(check int) "slice keeps only object events" 3
        (List.length d.Flight.dm_slice);
      Alcotest.(check bool) "dump roundtrips structurally" true
        (d.Flight.dm_events = Flight.events t
        && (d.Flight.dm_label, d.Flight.dm_reason, d.Flight.dm_object)
           = ("codec-test", "unit test", Some 4096)
        && (d.Flight.dm_nodes, d.Flight.dm_ring, d.Flight.dm_time) = (3, 8, 5.0e-6)));
  (* Unknown schema and junk are rejected with a message, not raised. *)
  Alcotest.(check bool) "junk rejected" true
    (match load_text "{}" with Error _ -> true | Ok _ -> false)

(* A well-formed two-node dump with one event, as text; each malformed
   case below breaks one field of it.  [object_] is the ["object"] value,
   [None] leaving the key out. *)
let dump_text ?(nodes = "2") ?(ring = "4") ?(object_ = Some "null")
    ?(node = "1") ?(t = "0.0005") ?(kind = "create") () =
  Printf.sprintf
    {|{"schema":"drust-flight/v1","label":"l","reason":"r","nodes":%s,
       "ring":%s,"time":0.001,%s"slice":[],
       "events":[{"t":%s,"node":%s,"kind":%S,
                  "a":64,"b":0,"c":0,"d":0}]}|}
    nodes ring
    (Option.fold ~none:"" ~some:(Printf.sprintf {|"object":%s,|}) object_)
    t node kind

(* Every row decodes to its pinned [Ok] label or exact error text, and
   none raises. *)
let test_malformed_dumps_rejected () =
  List.iter
    (fun (what, text, want) ->
      match load_text text with
      | got ->
          Alcotest.(check (result string string))
            what want
            (Result.map (fun d -> d.Flight.dm_label) got)
      | exception e ->
          Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    [
      ("a well-formed dump", dump_text (), Ok "l");
      (* docs/FORENSICS.md: the object is optional *)
      ("a dump without an object", dump_text ~object_:None (), Ok "l");
      ("an empty object", "{}", Error ".schema: missing field");
      ( "a foreign schema",
        {|{"schema":"drust-flight/v0"}|},
        Error {|.schema: expected "drust-flight/v1", got "drust-flight/v0"|} );
      ("negative nodes", dump_text ~nodes:"-3" (), Error ".nodes: -3, must be >= 1");
      ( "a fractional node count",
        dump_text ~nodes:"2.5" (),
        Error ".nodes: expected an integer" );
      ("an empty ring", dump_text ~ring:"0" (), Error ".ring: 0, must be >= 1");
      ( "a fractional object",
        dump_text ~object_:(Some "1.5") (),
        Error ".object: expected an integer" );
      ( "an event on node 7 of a 2-node dump",
        dump_text ~node:"7" (),
        Error ".events[0].node: event on node 7 of a 2-node dump" );
      ( "an event on a negative node",
        dump_text ~node:"-1" (),
        Error ".events[0].node: event on node -1 of a 2-node dump" );
      ( "an unknown event kind",
        dump_text ~kind:"meteor" (),
        Error {|.events[0].kind: unknown kind "meteor"|} );
      ( "an unknown key",
        dump_text ~ring:{|4, "rings": 4|} (),
        Error ".rings: unknown key" );
      ( "a duplicate key",
        dump_text ~ring:{|4, "nodes": 2|} (),
        Error ".nodes: duplicate key" );
      ( "a wrongly typed optional object",
        dump_text ~object_:(Some {|"0x40"|}) (),
        Error ".object: expected an integer" );
      ( "an event that is not an object",
        {|{"schema":"drust-flight/v1","label":"l","reason":"r","nodes":2,
           "ring":4,"time":0.001,"object":null,"slice":[],"events":[7]}|},
        Error ".events[0]: expected an object" );
      (* a time the writer could not write back fails closed *)
      ( "an event time that overflows to infinity",
        dump_text ~t:"1e999" (),
        Error ".events[0].t: number out of range" );
    ]

(* ------------------------------------------------------------------ *)
(* Timeline rendering on synthetic events *)

let test_explain_object_timeline () =
  let t = Flight.create ~cap:64 ~nodes:4 () in
  let phys = 8192 in
  Flight.record t ~node:0 ~time:0.0 ~kind:Flight.k_create ~a:phys ~b:0 ~c:0
    ~d:64;
  (* node 2 fetches a copy under color 0 *)
  Flight.record t ~node:2 ~time:1e-6 ~kind:Flight.k_read_fetch ~a:phys ~b:0
    ~c:0 ~d:0;
  (* unrelated object: must not show up in the slice *)
  Flight.record t ~node:3 ~time:1.5e-6 ~kind:Flight.k_read_local ~a:12288
    ~b:3 ~c:0 ~d:0;
  (* the owner writes: color bump strands node 2's copy *)
  Flight.record t ~node:0 ~time:2e-6 ~kind:Flight.k_write_bump ~a:phys
    ~b:phys ~c:1 ~d:0;
  Flight.record t ~node:0 ~time:3e-6 ~kind:Flight.k_transfer ~a:phys ~b:3
    ~d:0 ~c:0;
  Flight.record t ~node:2 ~time:4e-6 ~kind:Flight.k_dsan_violation ~a:phys
    ~b:1 ~c:0 ~d:0;
  let lines = Flight.explain_object ~object_:phys (Flight.events t) in
  check_line "creation" ~affix:"create" lines;
  check_line "staleness note" ~affix:"went stale here" lines;
  Alcotest.(check bool) "staleness names node 2" true
    (List.exists
       (fun l -> contains ~affix:"went stale" l && contains ~affix:"[2]" l)
       lines);
  check_line "violation marker" ~affix:"DSan flagged this object here" lines;
  check_line "ownership resolved" ~affix:"last known owner: node 3" lines;
  Alcotest.(check bool) "unrelated object filtered out" true
    (not (List.exists (contains ~affix:"0x3000") lines));
  (* render_last is per node, oldest first, bounded to 50 events: of
     node 0's 60, the 11th through the 60th. *)
  let r = Flight.create ~cap:64 ~nodes:2 () in
  for i = 1 to 59 do
    Flight.record r ~node:0 ~time:(float_of_int i *. 1e-6)
      ~kind:Flight.k_read_local ~a:phys ~b:0 ~c:0 ~d:0;
    Flight.record r ~node:1 ~time:(float_of_int i *. 1e-6)
      ~kind:Flight.k_read_local ~a:phys ~b:1 ~c:0 ~d:0
  done;
  Flight.record r ~node:0 ~time:60e-6 ~kind:Flight.k_transfer ~a:phys ~b:3
    ~c:0 ~d:0;
  let last = Flight.render_last (Flight.events r) ~node:0 in
  Alcotest.(check int) "limit respected" 50 (List.length last);
  Alcotest.(check bool) "only node 0" true
    (List.for_all (contains ~affix:"node 0") last);
  check_line "oldest kept is the 11th" ~affix:"t=0.000011000" [ List.hd last ];
  check_line "newest survives" ~affix:"transfer"
    [ List.nth last (List.length last - 1) ]

(* ------------------------------------------------------------------ *)
(* Automatic dumps *)

let test_guard_dumps_and_reraises () =
  in_temp_dump_dir (fun dir ->
      let t = Flight.create ~nodes:2 () in
      Flight.set_label t "guard-test";
      Flight.record t ~node:0 ~time:1.0 ~kind:Flight.k_view_change ~a:1 ~b:0
        ~c:0 ~d:0;
      let raised =
        try
          Flight.guard t ~now:(fun () -> 1.5) (fun () -> failwith "boom")
        with Failure m -> m
      in
      Alcotest.(check string) "exception re-raised intact" "boom" raised;
      let path = dump_path dir "guard-test" in
      Alcotest.(check bool) "dump written" true (Sys.file_exists path);
      (match Flight.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok d ->
          Alcotest.(check bool) "reason is the exception" true
            (contains ~affix:"uncaught" d.Flight.dm_reason
            && contains ~affix:"boom" d.Flight.dm_reason);
          Alcotest.(check (float 1e-12)) "dump time" 1.5 d.Flight.dm_time;
          Alcotest.(check int) "ring retained" 1
            (List.length d.Flight.dm_events));
      (* First failure wins: a second dump would overwrite the tail that
         explains the first. *)
      Alcotest.(check bool) "second auto_dump refused" false
        (Flight.auto_dump t ~reason:"later" ~now:2.0 ()))

(* ------------------------------------------------------------------ *)
(* Recording is strictly observational *)

let run_workload ~record =
  in_cluster (fun cluster ->
      Flight.set_enabled (Cluster.flight cluster) record;
      let ctx0 = Ctx.make cluster ~node:0 in
      let ctx1 = Ctx.make cluster ~node:1 in
      let o = P.create_on ctx0 ~node:0 ~size:64 (pack 1) in
      let r = P.borrow_imm ctx1 o in
      ignore (P.imm_deref ctx1 r);
      P.drop_imm ctx1 r;
      P.owner_write ctx0 o (pack 2);
      P.transfer ctx0 o ~to_node:2;
      let v = Univ.unpack_exn int_tag (P.owner_read ctx0 o) in
      P.drop_owner ctx0 o;
      (v, Cluster.now cluster))

let test_recording_is_observational () =
  let on = run_workload ~record:true in
  let off = run_workload ~record:false in
  Alcotest.(check bool) "identical result and virtual time" true (on = off)

(* ------------------------------------------------------------------ *)
(* The seeded regression: violation -> dump -> timeline, no re-run *)

let test_seeded_violation_dump_explains_object () =
  in_temp_dump_dir (fun dir ->
      let dump_path, phys =
        in_cluster (fun cluster ->
            let fl = Cluster.flight cluster in
            Flight.set_label fl "flight-regression";
            let ctx0 = Ctx.make cluster ~node:0 in
            let ctx1 = Ctx.make cluster ~node:1 in
            (* The real workload the black box witnesses: create on node
               0, a remote fetch caches a copy on node 1, then a color
               bump strands it. *)
            let o = P.create_on ctx0 ~node:0 ~size:64 (pack 1) in
            let r = P.borrow_imm ctx1 o in
            ignore (P.imm_deref ctx1 r);
            P.drop_imm ctx1 r;
            P.owner_write ctx0 o (pack 2);
            let g = P.gaddr o in
            let phys = Gaddr.to_int (Gaddr.clear_color g) in
            (* Inject the corrupted observation stream (a read served
               from the stale pre-bump copy) into a sanitizer attached
               to this same cluster: DSan must flag it AND the flight
               recorder must auto-write the dump naming this object. *)
            let t = Dsan.attach cluster in
            Fun.protect
              ~finally:(fun () -> Dsan.detach t)
              (fun () ->
                let g0 = Gaddr.clear_color g in
                let g1 = Gaddr.bump_color g0 in
                Dsan.observe t ~time:1e-5 ~node:0 ~thread:0
                  (Tap.Create { g = g0; size = 64 });
                Dsan.observe t ~time:1.1e-5 ~node:1 ~thread:(-1)
                  (Tap.Cache_insert { key = g0; size = 64 });
                Dsan.observe t ~time:1.2e-5 ~node:0 ~thread:0
                  (Tap.Write
                     { before = g0; after = g1; size = 64; kind = Tap.W_bump });
                Dsan.observe t ~time:1.3e-5 ~node:1 ~thread:2
                  (Tap.Read { g = g1; path = Tap.Path_cache g0 });
                Alcotest.(check bool) "sanitizer flagged the injection"
                  true
                  (Dsan.violations t <> []));
            (dump_path dir "flight-regression", phys))
      in
      Alcotest.(check bool) "violation auto-wrote the dump" true
        (Sys.file_exists dump_path);
      (* Everything below uses the dump alone — no cluster, no re-run. *)
      match Flight.load ~path:dump_path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok d ->
          Alcotest.(check (option int)) "offending object recorded"
            (Some phys) d.Flight.dm_object;
          Alcotest.(check bool) "reason names the invariant" true
            (contains ~affix:"stale_cache_read" d.Flight.dm_reason);
          Alcotest.(check bool) "causal slice extracted" true
            (d.Flight.dm_slice <> []);
          let lines = Flight.explain_object ~object_:phys d.Flight.dm_events in
          check_line "creation witnessed" ~affix:"create" lines;
          check_line "the remote fetch" ~affix:"read_fetch" lines;
          check_line "the color bump" ~affix:"write_bump" lines;
          Alcotest.(check bool) "staleness attributed to node 1" true
            (List.exists
               (fun l ->
                 contains ~affix:"went stale" l && contains ~affix:"[1]" l)
               lines);
          check_line "the violation marker"
            ~affix:"DSan flagged this object here" lines;
          check_line "ownership resolved" ~affix:"last known owner: node 0"
            lines)

let () =
  Alcotest.run "flight"
    [
      ( "kinds",
        [
          Alcotest.test_case "pins protocol op codes" `Quick
            test_kind_table_pins_protocol_codes;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraps and merges" `Quick
            test_ring_wraps_and_merges;
        ] );
      ( "codec",
        [
          Alcotest.test_case "dump roundtrip" `Quick test_dump_roundtrip;
          Alcotest.test_case "malformed dumps rejected" `Quick
            test_malformed_dumps_rejected;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "explain_object" `Quick
            test_explain_object_timeline;
        ] );
      ( "auto-dump",
        [
          Alcotest.test_case "guard dumps + re-raises" `Quick
            test_guard_dumps_and_reraises;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "recording is observational" `Quick
            test_recording_is_observational;
        ] );
      ( "regression",
        [
          Alcotest.test_case "seeded violation -> dump -> timeline" `Quick
            test_seeded_violation_dump_explains_object;
        ] );
    ]
