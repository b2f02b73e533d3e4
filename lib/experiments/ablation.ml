module B = Bench_setup
module Simplan = Drust_plan.Simplan
module Cluster = Drust_machine.Cluster
module Ctx = Drust_machine.Ctx
module Engine = Drust_sim.Engine
module P = Drust_core.Protocol
module Dmutex = Drust_runtime.Dmutex
module Dthread = Drust_runtime.Dthread
module Appkit = Drust_appkit.Appkit

type row = { experiment : string; variant : string; value : float; unit_ : string }

(* Run [body] as the main process of a fresh cluster, returning the
   virtual time it took and its result. *)
let timed ?(nodes = 4) setup body =
  let cluster = Cluster.create (B.testbed ~nodes ()) in
  setup cluster;
  let engine = Cluster.engine cluster in
  Ctx.run_main cluster (fun ctx ->
      let t0 = Engine.now engine in
      let v = body cluster ctx in
      Ctx.flush ctx;
      (Engine.now engine -. t0, v))

(* --- 1/2: local-write epochs under the three coloring variants -------- *)

let write_epochs ~epochs ~writes_per_epoch cluster ctx =
  ignore cluster;
  let o = P.create ctx ~size:4096 Appkit.blob in
  for _ = 1 to epochs do
    (* A read epoch (resets the U bit)... *)
    ignore (P.read ctx o);
    (* ...then a write epoch with several writes. *)
    let m = P.borrow_mut ctx o in
    for _ = 1 to writes_per_epoch do
      P.mut_write ctx m Appkit.blob
    done;
    P.drop_mut ctx m
  done

(* Each job below is a full independent cluster run returning its rows;
   [run] fans them all out over the domain pool and concatenates the
   chunks in submission order, reproducing the sequential row order. *)
let coloring_jobs () =
  let epochs = 2_000 and writes_per_epoch = 8 in
  (* The protocol's bump/move counters show the mechanism even where the
     cost difference is modest. *)
  let run setup =
    timed setup (fun cluster ctx ->
        let bumps0 = P.color_bumps ctx and moves0 = P.moves ctx in
        write_epochs ~epochs ~writes_per_epoch cluster ctx;
        (P.color_bumps ctx - bumps0, P.moves ctx - moves0))
  in
  let mk variant (t, (bumps, moves)) =
    [
      { experiment = "local writes"; variant; value = t *. 1e3; unit_ = "ms" };
      {
        experiment = "local writes";
        variant = variant ^ " [color bumps]";
        value = Float.of_int bumps;
        unit_ = "bumps";
      };
      {
        experiment = "local writes";
        variant = variant ^ " [moves]";
        value = Float.of_int moves;
        unit_ = "moves";
      };
    ]
  in
  [
    (fun () -> mk "pointer coloring (default)" (run (fun _ -> ())));
    (fun () ->
      mk "always-move (ablated)"
        (run (fun cluster -> P.set_always_move cluster true)));
    (fun () ->
      mk "no U-bit elision (ablated)"
        (run (fun cluster -> P.set_no_ubit cluster true)));
  ]

(* --- 3: linked-list sum, TBox vs plain Box --------------------------- *)

let list_sum ~tie cluster ctx =
  ignore cluster;
  let len = 64 in
  (* Build the list on node 1 (remote from the reader on node 0). *)
  let nodes_ = List.init len (fun i -> P.create_on ctx ~node:1 ~size:256 (Appkit.payload_of_int i)) in
  (match nodes_ with
  | head :: rest when tie ->
      ignore
        (List.fold_left
           (fun parent child ->
             P.tie ctx ~parent ~child;
             child)
           head rest)
  | _ -> ());
  Ctx.flush ctx;
  let t0 = Engine.now (Ctx.engine ctx) in
  (* Iterate the list: dereference every node. *)
  List.iter
    (fun o -> ignore (P.read ctx o))
    nodes_;
  Ctx.flush ctx;
  Engine.now (Ctx.engine ctx) -. t0

let tbox_jobs () =
  let one ~tie variant () =
    let _, t = timed (fun _ -> ()) (list_sum ~tie) in
    [
      { experiment = "linked-list sum (64 nodes)"; variant;
        value = t *. 1e6; unit_ = "us" };
    ]
  in
  [ one ~tie:false "plain Box (chase)"; one ~tie:true "TBox (batched)" ]

(* --- 4: one-sided vs two-sided mutex under contention ----------------- *)

let mutex_jobs () =
  let contenders = 16 and rounds = 50 in
  let per_op t = t /. Float.of_int (contenders * rounds) *. 1e6 in
  let drust () =
    let t, () =
      timed ~nodes:8
        (fun _ -> ())
        (fun cluster ctx ->
          let m = Dmutex.create ctx ~size:8 Appkit.blob in
          let workers =
            List.init contenders (fun i ->
                Dthread.spawn_on ctx ~node:(i mod Cluster.node_count cluster)
                  (fun wctx ->
                    for _ = 1 to rounds do
                      Dmutex.lock wctx m;
                      Ctx.compute wctx ~cycles:2_000.0;
                      Dmutex.unlock wctx m
                    done))
          in
          Dthread.join_all ctx workers)
    in
    [
      { experiment = "contended lock (16 threads)";
        variant = "DRust 1-sided CAS"; value = per_op t;
        unit_ = "us/critical-section" };
    ]
  in
  let gam () =
    let t, () =
      timed ~nodes:8
        (fun _ -> ())
        (fun cluster ctx ->
          let backend = Simplan.make_backend Simplan.Gam cluster in
          let m = backend.Drust_dsm.Dsm.mutex_create ctx in
          let workers =
            List.init contenders (fun i ->
                Dthread.spawn_on ctx ~node:(i mod Cluster.node_count cluster)
                  (fun wctx ->
                    for _ = 1 to rounds do
                      backend.Drust_dsm.Dsm.mutex_lock wctx m;
                      Ctx.compute wctx ~cycles:2_000.0;
                      backend.Drust_dsm.Dsm.mutex_unlock wctx m
                    done))
          in
          Dthread.join_all ctx workers)
    in
    [
      { experiment = "contended lock (16 threads)";
        variant = "GAM-style 2-sided RPC"; value = per_op t;
        unit_ = "us/critical-section" };
    ]
  in
  [ drust; gam ]

let run () =
  let chunks =
    Parallel.run (coloring_jobs () @ tbox_jobs () @ mutex_jobs ())
  in
  Report.section "Ablations: protocol design choices";
  let rows = List.concat chunks in
  Report.table
    ~header:[ "experiment"; "variant"; "result"; "unit" ]
    ~rows:
      (List.map
         (fun r -> [ r.experiment; r.variant; Printf.sprintf "%.2f" r.value; r.unit_ ])
         rows);
  rows
