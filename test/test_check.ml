(* Tests for the DSan shadow-state sanitizer (lib/check).

   Three layers:
   - injection: feed deliberately corrupted event streams into the
     Dsan.observe entry point and assert every invariant class is caught
     with an attributed report;
   - clean runs: real protocol / runtime / chaos-failover workloads under
     the sanitizer must produce zero violations (including the two
     regressions the sanitizer originally surfaced: the pinned
     write-through epoch bump and the failover cache purge);
   - determinism: a sanitized fig5/fig6 run is bit-identical on stdout to
     an unsanitized one — the sanitizer is purely observational. *)

module Engine = Drust_sim.Engine
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module P = Drust_core.Protocol
module Gaddr = Drust_memory.Gaddr
module Tap = Drust_memory.Tap
module Cache = Drust_memory.Cache
module Univ = Drust_util.Univ
module Darc = Drust_runtime.Darc
module Dmutex = Drust_runtime.Dmutex
module Replication = Drust_runtime.Replication
module Membership = Drust_runtime.Membership
module Dsan = Drust_check.Dsan

let int_tag : int Univ.tag = Univ.create_tag ~name:"int"
let pack = Univ.pack int_tag
let unpack v = Univ.unpack_exn int_tag v

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

(* The invariant a report names: its first line reads
   "DSan violation: <name>". *)
let invariant_of r =
  let line = List.hd (String.split_on_char '\n' (Dsan.report_to_string r)) in
  Scanf.sscanf line "DSan violation: %s" Fun.id

(* Reports before the last [forget] are neither [flagged] nor counted:
   each injection step checks only what it added. *)
let seen = ref 0
let forget t = seen := List.length (Dsan.violations t)
let count t = List.length (Dsan.violations t) - !seen

let flagged t =
  List.sort_uniq compare
    (List.filteri (fun i _ -> i >= !seen) (List.map invariant_of (Dsan.violations t)))

let check_flagged msg t names =
  Alcotest.(check (list string)) msg names (flagged t)

(* A sanitizer over a throwaway cluster, used purely as an injection
   sink: events are synthesized, never produced by the cluster itself. *)
let sanitized cluster f =
  let t = Dsan.attach cluster in
  seen := 0;
  Fun.protect ~finally:(fun () -> Dsan.detach t) (fun () -> f t)

let with_sink f = sanitized (Cluster.create (small_params 4)) f

let addr ?(color = 0) ~node ~offset () =
  Gaddr.with_color (Gaddr.make ~node ~offset) color

(* ------------------------------------------------------------------ *)
(* Injection: every invariant class must be caught *)

let test_inject_double_owner () =
  with_sink (fun t ->
      let g = addr ~node:1 ~offset:4096 () in
      Dsan.observe t ~time:0.0 ~node:1 ~thread:0
        (Tap.Create { g; size = 64 });
      Dsan.observe t ~time:2e-6 ~node:2 ~thread:1
        (Tap.Create { g; size = 64 });
      check_flagged "double owner" t [ "dsan.single_owner" ];
      match Dsan.violations t with
      | [ r ] ->
          Alcotest.(check int) "attributed to node" 2 r.Dsan.node;
          Alcotest.(check int) "attributed to thread" 1 r.Dsan.thread;
          Alcotest.(check (float 1e-12)) "virtual time" 2e-6 r.Dsan.time;
          Alcotest.(check bool) "addr attributed" true (r.Dsan.addr <> None);
          Alcotest.(check bool) "provenance nonempty" true
            (r.Dsan.provenance <> [])
      | rs -> Alcotest.failf "expected one report, got %d" (List.length rs))

let test_inject_stale_cache_read () =
  with_sink (fun t ->
      let g0 = addr ~node:1 ~offset:4096 () in
      let g1 = addr ~color:1 ~node:1 ~offset:4096 () in
      Dsan.observe t ~time:0.0 ~node:1 ~thread:0
        (Tap.Create { g = g0; size = 64 });
      Dsan.observe t ~time:1e-6 ~node:3 ~thread:(-1)
        (Tap.Cache_insert { key = g0; size = 64 });
      Dsan.observe t ~time:2e-6 ~node:1 ~thread:0
        (Tap.Write { before = g0; after = g1; size = 64; kind = Tap.W_bump });
      (* read served from the copy fetched under the old color *)
      Dsan.observe t ~time:3e-6 ~node:3 ~thread:2
        (Tap.Read { g = g1; path = Tap.Path_cache g0 });
      check_flagged "stale cached copy served" t [ "dsan.stale_cache_read" ])

let test_inject_stale_cache_hit () =
  with_sink (fun t ->
      let g0 = addr ~node:1 ~offset:4096 () in
      let g1 = addr ~color:1 ~node:1 ~offset:4096 () in
      Dsan.observe t ~time:0.0 ~node:1 ~thread:0
        (Tap.Create { g = g0; size = 64 });
      Dsan.observe t ~time:1e-6 ~node:1 ~thread:0
        (Tap.Write { before = g0; after = g1; size = 64; kind = Tap.W_bump });
      (* the cache itself reports a hit under a stale colored key *)
      Dsan.observe t ~time:2e-6 ~node:2 ~thread:(-1)
        (Tap.Cache_hit { key = g0 });
      check_flagged "stale hit" t [ "dsan.stale_cache_read" ])

let test_inject_inplace_write_with_live_copies () =
  (* The invariant the pinned write-through bug violated: an in-place
     value change while copies fetched under the current color are still
     reachable in remote caches. *)
  with_sink (fun t ->
      let g = addr ~node:0 ~offset:8192 () in
      Dsan.observe t ~time:0.0 ~node:0 ~thread:0
        (Tap.Create { g; size = 64 });
      Dsan.observe t ~time:1e-6 ~node:2 ~thread:(-1)
        (Tap.Cache_insert { key = g; size = 64 });
      Dsan.observe t ~time:2e-6 ~node:1 ~thread:3
        (Tap.Write { before = g; after = g; size = 64; kind = Tap.W_in_place });
      check_flagged "in-place write with reachable copies" t
        [ "dsan.move_invalidation" ])

let test_inject_negative_refcount () =
  with_sink (fun t ->
      let g = addr ~node:2 ~offset:256 () in
      Dsan.observe t ~time:0.0 ~node:2 ~thread:0
        (Tap.Rc_created { g; size = 32; count = 1 });
      Dsan.observe t ~time:1e-6 ~node:2 ~thread:0
        (Tap.Rc_released { g; count = 0 });
      Dsan.observe t ~time:2e-6 ~node:3 ~thread:1
        (Tap.Rc_released { g; count = -1 });
      check_flagged "negative refcount" t [ "dsan.refcount_sanity" ])

let test_inject_refcount_divergence_and_leak () =
  with_sink (fun t ->
      let g = addr ~node:2 ~offset:512 () in
      Dsan.observe t ~time:0.0 ~node:2 ~thread:0
        (Tap.Rc_created { g; size = 32; count = 1 });
      (* implementation says 3, shadow says 2: lost update on the count *)
      Dsan.observe t ~time:1e-6 ~node:2 ~thread:0
        (Tap.Rc_retained { g; count = 3 });
      check_flagged "diverged" t [ "dsan.refcount_sanity" ];
      forget t;
      (* freed while the shadow still expects holders *)
      Dsan.observe t ~time:2e-6 ~node:2 ~thread:0 (Tap.Rc_freed { g });
      check_flagged "freed with holders" t [ "dsan.refcount_sanity" ];
      forget t;
      (* and any use after the free *)
      Dsan.observe t ~time:3e-6 ~node:2 ~thread:0
        (Tap.Rc_retained { g; count = 1 });
      check_flagged "retain after free" t [ "dsan.use_after_free" ])

let test_inject_foreign_unlock () =
  with_sink (fun t ->
      let g = addr ~node:0 ~offset:64 () in
      Dsan.observe t ~time:0.0 ~node:0 ~thread:1
        (Tap.Lock_created { g });
      Dsan.observe t ~time:1e-6 ~node:0 ~thread:1
        (Tap.Lock_acquired { g; thread = 1 });
      Dsan.observe t ~time:2e-6 ~node:2 ~thread:7
        (Tap.Lock_released { g; thread = 7 });
      check_flagged "foreign unlock" t [ "dsan.lock_discipline" ])

let test_inject_double_grant () =
  with_sink (fun t ->
      let g = addr ~node:0 ~offset:64 () in
      Dsan.observe t ~time:0.0 ~node:0 ~thread:1
        (Tap.Lock_created { g });
      Dsan.observe t ~time:1e-6 ~node:0 ~thread:1
        (Tap.Lock_acquired { g; thread = 1 });
      Dsan.observe t ~time:2e-6 ~node:1 ~thread:2
        (Tap.Lock_acquired { g; thread = 2 });
      check_flagged "double grant" t [ "dsan.lock_discipline" ])

let test_inject_double_promotion () =
  with_sink (fun t ->
      Dsan.observe t ~time:1e-3 ~node:0 ~thread:(-1)
        (Tap.Node_failed { node = 1 });
      Dsan.observe t ~time:2e-3 ~node:0 ~thread:(-1)
        (Tap.Promoted { home = 1; by = 2; replica = 0 });
      Alcotest.(check int) "first promotion legal" 0 (count t);
      Dsan.observe t ~time:3e-3 ~node:0 ~thread:(-1)
        (Tap.Promoted { home = 1; by = 3; replica = 1 });
      check_flagged "second promotion of a served range" t
        [ "dsan.promotion_uniqueness" ])

let test_inject_promotion_without_purge () =
  (* The invariant the failover purge bug violated: copies of the
     promoted range still cached on survivors after the promotion. *)
  with_sink (fun t ->
      let g = addr ~node:1 ~offset:4096 () in
      Dsan.observe t ~time:0.0 ~node:0 ~thread:0
        (Tap.Create { g; size = 64 });
      Dsan.observe t ~time:1e-6 ~node:3 ~thread:(-1)
        (Tap.Cache_insert { key = g; size = 64 });
      Dsan.observe t ~time:1e-3 ~node:0 ~thread:(-1)
        (Tap.Node_failed { node = 1 });
      Dsan.observe t ~time:2e-3 ~node:0 ~thread:(-1)
        (Tap.Promoted { home = 1; by = 2; replica = 0 });
      check_flagged "copies survived the failover purge" t
        [ "dsan.move_invalidation" ])

let test_inject_epoch_regression () =
  with_sink (fun t ->
      Dsan.observe t ~time:1e-3 ~node:0 ~thread:(-1)
        (Tap.View_change { epoch = 1; reason = "join" });
      Dsan.observe t ~time:2e-3 ~node:0 ~thread:(-1)
        (Tap.View_change { epoch = 3; reason = "leave" });
      Alcotest.(check int) "monotone climb legal" 0 (count t);
      (* a repeated epoch is as illegal as a regression: both mean two
         views could answer for the same instant *)
      Dsan.observe t ~time:3e-3 ~node:0 ~thread:(-1)
        (Tap.View_change { epoch = 3; reason = "echo" });
      check_flagged "repeated epoch" t [ "dsan.epoch_monotonic" ];
      forget t;
      Dsan.observe t ~time:4e-3 ~node:0 ~thread:(-1)
        (Tap.View_change { epoch = 2; reason = "rollback" });
      check_flagged "epoch went backwards" t [ "dsan.epoch_monotonic" ])

let test_inject_handoff_atomicity () =
  with_sink (fun t ->
      (* commit with no prepare *)
      Dsan.observe t ~time:1e-3 ~node:0 ~thread:(-1)
        (Tap.Handoff_committed
           { home = 1; from_node = 1; to_node = 2; epoch = 1 });
      check_flagged "commit without prepare" t [ "dsan.handoff_atomicity" ];
      forget t;
      (* prepare/commit endpoint mismatch: the range would end up with a
         server the prepare never named *)
      Dsan.observe t ~time:2e-3 ~node:0 ~thread:(-1)
        (Tap.Handoff_prepared { home = 3; from_node = 3; to_node = 0 });
      Dsan.observe t ~time:3e-3 ~node:0 ~thread:(-1)
        (Tap.Handoff_committed
           { home = 3; from_node = 3; to_node = 1; epoch = 2 });
      check_flagged "commit does not match prepare" t
        [ "dsan.handoff_atomicity" ];
      forget t;
      (* a second prepare for a range already in flight *)
      Dsan.observe t ~time:4e-3 ~node:0 ~thread:(-1)
        (Tap.Handoff_prepared { home = 0; from_node = 0; to_node = 2 });
      Dsan.observe t ~time:5e-3 ~node:0 ~thread:(-1)
        (Tap.Handoff_prepared { home = 0; from_node = 0; to_node = 3 });
      check_flagged "double prepare" t [ "dsan.handoff_atomicity" ];
      forget t;
      (* prepare from a node that does not serve the range: committing it
         would leave the range with two servers *)
      Dsan.observe t ~time:6e-3 ~node:0 ~thread:(-1)
        (Tap.Handoff_prepared { home = 2; from_node = 3; to_node = 0 });
      check_flagged "prepare from a non-server" t [ "dsan.handoff_atomicity" ];
      forget t;
      (* handing a range to a dead node: zero servers *)
      Dsan.observe t ~time:7e-3 ~node:0 ~thread:(-1)
        (Tap.Node_failed { node = 3 });
      Dsan.observe t ~time:8e-3 ~node:0 ~thread:(-1)
        (Tap.Handoff_prepared { home = 1; from_node = 1; to_node = 3 });
      check_flagged "prepare toward a dead node" t [ "dsan.handoff_atomicity" ])

let test_inject_bad_reseed () =
  with_sink (fun t ->
      Dsan.observe t ~time:1e-3 ~node:0 ~thread:(-1)
        (Tap.Chain_reseeded { home = 1; server = 1; hosts = [] });
      check_flagged "empty chain" t [ "dsan.replica_chain_intact" ];
      forget t;
      Dsan.observe t ~time:2e-3 ~node:0 ~thread:(-1)
        (Tap.Chain_reseeded { home = 1; server = 1; hosts = [ 2; 2 ] });
      check_flagged "duplicate host" t [ "dsan.replica_chain_intact" ];
      forget t;
      Dsan.observe t ~time:3e-3 ~node:0 ~thread:(-1)
        (Tap.Chain_reseeded { home = 1; server = 1; hosts = [ 1 ] });
      check_flagged "replica co-located with server" t
        [ "dsan.replica_chain_intact" ];
      forget t;
      Dsan.observe t ~time:4e-3 ~node:0 ~thread:(-1)
        (Tap.Node_failed { node = 3 });
      Dsan.observe t ~time:5e-3 ~node:0 ~thread:(-1)
        (Tap.Chain_reseeded { home = 1; server = 1; hosts = [ 3 ] });
      check_flagged "replica on a dead host" t [ "dsan.replica_chain_intact" ];
      forget t;
      (* chain announced around a server that does not serve the range *)
      Dsan.observe t ~time:6e-3 ~node:0 ~thread:(-1)
        (Tap.Chain_reseeded { home = 1; server = 2; hosts = [ 0 ] });
      check_flagged "server mismatch" t [ "dsan.replica_chain_intact" ])

let test_inject_borrow_violations () =
  with_sink (fun t ->
      let g = addr ~node:0 ~offset:128 () in
      let g1 = addr ~color:1 ~node:0 ~offset:128 () in
      Dsan.observe t ~time:0.0 ~node:0 ~thread:0
        (Tap.Create { g; size = 64 });
      Dsan.observe t ~time:1e-6 ~node:0 ~thread:0
        (Tap.Borrow_imm { g });
      Dsan.observe t ~time:2e-6 ~node:0 ~thread:0
        (Tap.Write { before = g; after = g1; size = 64; kind = Tap.W_bump });
      check_flagged "write while immutably borrowed" t
        [ "dsan.borrow_discipline" ];
      forget t;
      Dsan.observe t ~time:3e-6 ~node:0 ~thread:1
        (Tap.Borrow_mut { g = g1 });
      check_flagged "mut borrow while shared" t [ "dsan.borrow_discipline" ])

let test_inject_use_after_free () =
  with_sink (fun t ->
      let g = addr ~node:0 ~offset:128 () in
      Dsan.observe t ~time:0.0 ~node:0 ~thread:0
        (Tap.Create { g; size = 64 });
      Dsan.observe t ~time:1e-6 ~node:0 ~thread:0 (Tap.Drop { g });
      Dsan.observe t ~time:2e-6 ~node:0 ~thread:0
        (Tap.Read { g; path = Tap.Path_local });
      check_flagged "read after drop" t [ "dsan.use_after_free" ])

let test_report_rendering () =
  with_sink (fun t ->
      let g = addr ~node:1 ~offset:4096 () in
      Dsan.observe t ~time:0.0 ~node:1 ~thread:0
        (Tap.Create { g; size = 64 });
      Dsan.observe t ~time:2e-6 ~node:2 ~thread:1
        (Tap.Create { g; size = 64 });
      let s = Dsan.report_to_string (List.hd (Dsan.violations t)) in
      Alcotest.(check bool) "names the invariant" true
        (Astring.String.is_infix ~affix:"dsan.single_owner" s);
      Alcotest.(check bool) "carries provenance" true
        (Astring.String.is_infix ~affix:"create" s))

(* ------------------------------------------------------------------ *)
(* Clean runs: real workloads must not trip the sanitizer *)

let test_clean_protocol_traffic () =
  let violations =
    in_cluster ~nodes:4 (fun cluster ->
        sanitized cluster (fun t ->
            let ctx0 = Ctx.make cluster ~node:0 in
            let ctx1 = Ctx.make cluster ~node:1 in
            (* owner life cycle: create, bump, borrow, remote deref,
               mutable borrow, transfer, drop *)
            let o = P.create ctx0 ~size:64 (pack 1) in
            P.owner_write ctx0 o (pack 2);
            let r = P.borrow_imm ctx0 o in
            Alcotest.(check int) "remote imm deref" 2
              (unpack (P.imm_deref ctx1 r));
            P.drop_imm ctx1 r;
            let m = P.borrow_mut ctx0 o in
            P.mut_write ctx0 m (pack 3);
            P.drop_mut ctx0 m;
            P.transfer ctx0 o ~to_node:1;
            Alcotest.(check int) "post-transfer read" 3
              (unpack (P.owner_read ctx1 o));
            P.drop_owner ctx1 o;
            (* refcounted cells, cross-node *)
            let a = Darc.create ctx0 ~size:32 (pack 7) in
            let b = Darc.clone ctx1 a in
            Alcotest.(check int) "darc get" 7 (unpack (Darc.get ctx1 b));
            Darc.drop ctx0 a;
            Darc.drop ctx1 b;
            (* lock handoff between two simulated threads *)
            let mu = Dmutex.create ctx0 ~size:16 (pack 0) in
            Dmutex.lock ctx0 mu;
            Dmutex.unlock ctx0 mu;
            Dmutex.lock ctx1 mu;
            Dmutex.unlock ctx1 mu;
            count t))
  in
  Alcotest.(check int) "zero violations" 0 violations

let test_clean_pinned_write_through () =
  (* Regression for the bug DSan surfaced: a remote write-through to a
     pinned object must close the epoch (publish a fresh color) so the
     reader's cached copy becomes unreachable. *)
  let violations =
    in_cluster ~nodes:2 (fun cluster ->
        sanitized cluster (fun t ->
            let ctx0 = Ctx.make cluster ~node:0 in
            let ctx1 = Ctx.make cluster ~node:1 in
            let o = P.create ctx0 ~size:64 (pack 1) in
            P.pin ctx0 o;
            P.transfer ctx0 o ~to_node:1;
            (* the reader on node 1 caches a copy under the current color *)
            Alcotest.(check int) "pre-write read" 1
              (unpack (P.owner_read ctx1 o));
            let color_before = Gaddr.color_of (P.gaddr o) in
            P.owner_write ctx1 o (pack 2);
            Alcotest.(check bool)
              "write-through closed the epoch (color changed)" true
              (Gaddr.color_of (P.gaddr o) <> color_before);
            Alcotest.(check int) "post-write read sees the new value" 2
              (unpack (P.owner_read ctx1 o));
            count t))
  in
  Alcotest.(check int) "zero violations" 0 violations

let test_clean_chaos_failover () =
  (* Regression for the second bug DSan surfaced: fail_and_promote must
     purge surviving caches of the promoted range, or the promotion shadow
     check reports reachable stale copies. *)
  let violations =
    in_cluster ~nodes:4 (fun cluster ->
        sanitized cluster (fun t ->
            let ctx0 = Ctx.make cluster ~node:0 in
            let ctx2 = Ctx.make cluster ~node:2 in
            let o = P.create_on ctx0 ~node:1 ~size:64 (pack 42) in
            let repl = Replication.enable cluster in
            (* survivors cache copies of the soon-to-die range *)
            Alcotest.(check int) "pre-crash remote read" 42
              (unpack (P.owner_read ctx2 o));
            Replication.fail_and_promote ctx0 repl ~node:1;
            Alcotest.(check int) "range re-served by the backup" 2
              (Cluster.serving_node cluster 1);
            Alcotest.(check int) "post-crash read via promoted replica" 42
              (unpack (P.owner_read ctx2 o));
            Replication.disable repl;
            count t))
  in
  Alcotest.(check int) "zero violations" 0 violations

(* ------------------------------------------------------------------ *)
(* Determinism: the sanitizer must be purely observational *)

let capture_stdout f =
  let tmp = Filename.temp_file "dsan_cap" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
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

let check_bit_identical name plain sanitized =
  if not (String.equal plain sanitized) then begin
    let n = min (String.length plain) (String.length sanitized) in
    let i = ref 0 in
    while !i < n && plain.[!i] = sanitized.[!i] do
      incr i
    done;
    Alcotest.failf
      "%s: sanitized stdout diverges at byte %d (lengths %d vs %d): %S vs %S"
      name !i (String.length plain) (String.length sanitized)
      (String.sub plain !i (min 60 (String.length plain - !i)))
      (String.sub sanitized !i (min 60 (String.length sanitized - !i)))
  end

let sanitized_total () = Dsan.report_attached ~clean:stderr

let test_sanitized_fig5_bit_identical () =
  let module Fig5 = Drust_experiments.Fig5 in
  let (), plain = capture_stdout (fun () -> ignore (Fig5.run ~node_counts:[ 1; 2 ] ())) in
  Dsan.install_global ();
  let (), sanitized =
    Fun.protect
      ~finally:(fun () -> Cluster.set_create_hook None)
      (fun () ->
        capture_stdout (fun () -> ignore (Fig5.run ~node_counts:[ 1; 2 ] ())))
  in
  Alcotest.(check int) "fig5 sanitized cleanly" 0 (sanitized_total ());
  check_bit_identical "fig5" plain sanitized

let test_sanitized_fig6_bit_identical () =
  let module Fig6 = Drust_experiments.Fig6 in
  let (), plain = capture_stdout (fun () -> ignore (Fig6.run ())) in
  Dsan.install_global ();
  let (), sanitized =
    Fun.protect
      ~finally:(fun () -> Cluster.set_create_hook None)
      (fun () -> capture_stdout (fun () -> ignore (Fig6.run ())))
  in
  Alcotest.(check int) "fig6 sanitized cleanly" 0 (sanitized_total ());
  check_bit_identical "fig6" plain sanitized

(* ------------------------------------------------------------------ *)
(* Two-cluster isolation: with all per-cluster state in the cluster
   (its tap, its Env record), two clusters stepped in lockstep in one
   process must not observe each other — separate sanitizers, taps,
   protocol options and stats, with zero cross-talk. *)

let test_two_clusters_interleaved_isolation () =
  let a = Cluster.create (small_params 2) in
  let b = Cluster.create (small_params 2) in
  let ta = Dsan.attach a in
  let tb = Dsan.attach b in
  (* Per-cluster counting subscribers, each chained in front of its own
     cluster's sanitizer: the deterministic workloads below must deliver
     equal streams, which any leakage of one cluster's events into the
     other's tap would break. *)
  let probes_a = ref 0 and probes_b = ref 0 in
  let rc_a = ref 0 and rc_b = ref 0 in
  let count cluster probes rcs =
    let tap = Cluster.tap cluster in
    let dsan = Option.get tap.Tap.sub in
    Tap.set tap
      (Some
         (fun ~node ~thread ev ->
           (match ev with
           | Tap.Rc_created _ | Rc_retained _ | Rc_released _ | Rc_freed _ ->
               incr rcs
           | _ -> incr probes);
           dsan ~node ~thread ev))
  in
  count a probes_a rc_a;
  count b probes_b rc_b;
  (* Divergent per-cluster options: A moves on every access, B keeps the
     default coloring protocol. *)
  P.set_always_move a true;
  let moves_a = ref 0 and moves_b = ref 0 in
  let workload cluster moves =
    ignore
      (Engine.spawn (Cluster.engine cluster) (fun () ->
           let ctx = Ctx.make cluster ~node:0 in
           let moves0 = P.moves ctx in
           let o = P.create ctx ~size:64 (pack 0) in
           (* Alternate read and write epochs: each write then resolves
              by a color bump (default) or a forced move (always_move). *)
           for i = 1 to 8 do
             let rr = P.borrow_imm ctx o in
             ignore (P.imm_deref ctx rr);
             P.drop_imm ctx rr;
             P.owner_modify ctx o (fun v -> pack (unpack v + i))
           done;
           let arc = Darc.create ctx ~size:64 (pack 1) in
           Darc.drop ctx (Darc.clone ctx arc);
           Darc.drop ctx arc;
           Ctx.flush ctx;
           moves := P.moves ctx - moves0))
  in
  workload a moves_a;
  workload b moves_b;
  (* Interleave the two engines event by event in one domain. *)
  let ea = Cluster.engine a and eb = Cluster.engine b in
  let rec lockstep () =
    let ra = Engine.step ea in
    let rb = Engine.step eb in
    if ra || rb then lockstep ()
  in
  lockstep ();
  Alcotest.(check bool) "A saw its probes" true (!probes_a > 0);
  Alcotest.(check bool) "B saw its probes" true (!probes_b > 0);
  Alcotest.(check bool) "A saw its rc events" true (!rc_a > 0);
  Alcotest.(check bool) "B saw its rc events" true (!rc_b > 0);
  (* Same deterministic workload, so the event counts must agree —
     any leakage of one cluster's events into the other's cell breaks
     the equality. *)
  Alcotest.(check int) "equal probe streams" !probes_a !probes_b;
  Alcotest.(check int) "equal rc streams" !rc_a !rc_b;
  (* The always_move option stayed confined to A: B resolves the write
     epochs with color bumps after its initial ownership move, so A must
     have strictly more moves. *)
  Alcotest.(check bool) "A moved" true (!moves_a > 0);
  Alcotest.(check bool) "always_move confined to A" true (!moves_a > !moves_b);
  (* Both sanitizers watched a full run each and stayed clean, on their
     own cluster. *)
  Alcotest.(check int) "A sanitizer clean" 0 (List.length (Dsan.violations ta));
  Alcotest.(check int) "B sanitizer clean" 0 (List.length (Dsan.violations tb));
  Dsan.detach ta;
  Dsan.detach tb

let () =
  Alcotest.run "check"
    [
      ( "injection",
        [
          Alcotest.test_case "double owner" `Quick test_inject_double_owner;
          Alcotest.test_case "stale cached copy read" `Quick
            test_inject_stale_cache_read;
          Alcotest.test_case "stale cache hit" `Quick test_inject_stale_cache_hit;
          Alcotest.test_case "in-place write with live copies" `Quick
            test_inject_inplace_write_with_live_copies;
          Alcotest.test_case "negative refcount" `Quick
            test_inject_negative_refcount;
          Alcotest.test_case "refcount divergence / leak / UAF" `Quick
            test_inject_refcount_divergence_and_leak;
          Alcotest.test_case "foreign unlock" `Quick test_inject_foreign_unlock;
          Alcotest.test_case "double lock grant" `Quick test_inject_double_grant;
          Alcotest.test_case "double promotion" `Quick
            test_inject_double_promotion;
          Alcotest.test_case "promotion without cache purge" `Quick
            test_inject_promotion_without_purge;
          Alcotest.test_case "epoch regression" `Quick
            test_inject_epoch_regression;
          Alcotest.test_case "handoff atomicity" `Quick
            test_inject_handoff_atomicity;
          Alcotest.test_case "bad reseed chain" `Quick test_inject_bad_reseed;
          Alcotest.test_case "borrow discipline" `Quick
            test_inject_borrow_violations;
          Alcotest.test_case "use after free" `Quick test_inject_use_after_free;
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
        ] );
      ( "clean-runs",
        [
          Alcotest.test_case "protocol + runtime traffic" `Quick
            test_clean_protocol_traffic;
          Alcotest.test_case "pinned write-through (regression)" `Quick
            test_clean_pinned_write_through;
          Alcotest.test_case "chaos failover purge (regression)" `Quick
            test_clean_chaos_failover;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig5 sanitized == unsanitized" `Slow
            test_sanitized_fig5_bit_identical;
          Alcotest.test_case "fig6 sanitized == unsanitized" `Slow
            test_sanitized_fig6_bit_identical;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "two clusters interleaved" `Quick
            test_two_clusters_interleaved_isolation;
        ] );
    ]
