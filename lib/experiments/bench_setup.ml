module Params = Drust_machine.Params
module Simplan = Drust_plan.Simplan
module Appkit = Drust_appkit.Appkit

let testbed ?(nodes = 8) ?(seed = 42) () =
  { Params.default with Params.nodes; mem_per_node = Drust_util.Units.gib 8; seed }

let fixed_testbed ~nodes =
  Params.fixed_resource (testbed ~nodes ()) ~total_cores:16
    ~total_mem:(Drust_util.Units.gib 8 * 8) ~nodes

(* Every harness run goes through a plan: the figure grids construct one
   per cell and [Simplan.execute] it, so a cell's exact scenario can be
   re-emitted ([--emit-plan]) and replayed ([--plan]) from the same
   artifact the CLIs speak. *)
let run_app_with_latency ?affinity ?pass_by_value app system ~params =
  let plan = Simplan.app_plan ?affinity ?pass_by_value ~params app system in
  match (Simplan.execute plan).Simplan.result with
  | Simplan.App_done { result; latency; _ } -> (result, latency)
  | Simplan.Failover_done _ | Simplan.Churn_done _ -> assert false

let run_app ?affinity ?pass_by_value app system ~params =
  fst (run_app_with_latency ?affinity ?pass_by_value app system ~params)

(* Memoized: every figure normalizes against the same baseline.  The key
   carries the full run configuration — a baseline computed for one
   parameter set must never be served for another (keying on the app
   alone silently mixed configurations).  The mutex covers lookups and
   inserts from parallel sweep domains; the run itself happens outside
   the lock, so two domains may race to compute the same key, in which
   case both compute identical (deterministic) results and the second
   insert is a no-op overwrite. *)
type baseline_key = {
  bk_app : Simplan.app;
  bk_pass_by_value : bool;
  bk_params : Params.t;
}

let baseline_cache : (baseline_key, Appkit.result) Hashtbl.t =
  Hashtbl.create 8
[@@dlint.allow
  "globals: the baseline memo spans clusters on purpose (that is the \
   memo); the key carries the full run configuration and inserts are \
   mutex-protected"]
let baseline_mutex = Mutex.create ()

let default_baseline_params () = testbed ~nodes:1 ()

let single_node_baseline ?params app =
  let params =
    match params with Some p -> p | None -> default_baseline_params ()
  in
  let pass_by_value = app = Simplan.Socialnet_app in
  let key = { bk_app = app; bk_pass_by_value = pass_by_value; bk_params = params } in
  match
    Mutex.protect baseline_mutex (fun () -> Hashtbl.find_opt baseline_cache key)
  with
  | Some r -> r
  | None ->
      let r = run_app ~pass_by_value app Simplan.Original ~params in
      Mutex.protect baseline_mutex (fun () ->
          Hashtbl.replace baseline_cache key r);
      r

let precompute_baselines ?jobs apps =
  ignore (Parallel.map ?jobs (fun app -> single_node_baseline app) apps)
