(** Shared experiment plumbing: cluster construction, backend selection,
    and normalized application runs.

    The run types re-export {!Drust_plan.Simplan}'s — the plan layer is
    the single definition of what a run is — and {!run_app} is a thin
    wrapper over [Simplan.execute], so every figure cell is described by
    a replayable plan. *)

module Params = Drust_machine.Params
module Cluster = Drust_machine.Cluster

type system = Drust_plan.Simplan.system = Drust | Gam | Grappa | Original

val system_name : system -> string
val all_systems : system list
(** [Drust; Gam; Grappa] — the three DSMs of Fig. 5. *)

val testbed : ?nodes:int -> ?seed:int -> unit -> Params.t
(** The paper's testbed: 16 cores / node at 2.6 GHz on 40 Gbps IB. *)

val fixed_testbed : nodes:int -> Params.t
(** Fig. 7: 16 cores and 64 GB total, split evenly over [nodes]. *)

val make_backend : system -> Cluster.t -> Drust_dsm.Dsm.t

type app = Drust_plan.Simplan.app =
  | Dataframe_app
  | Socialnet_app
  | Gemm_app
  | Kvstore_app

val app_name : app -> string
val all_apps : app list

val run_app :
  ?affinity:bool ->
  ?pass_by_value:bool ->
  app ->
  system ->
  params:Params.t ->
  Drust_appkit.Appkit.result
(** Build a fresh cluster from [params], instantiate the system's backend,
    run the app's default configuration, and return the result.
    [affinity] turns on the DataFrame TBox/spawn_to annotations (DRust
    only).  [pass_by_value] selects SocialNet's original RPC deployment. *)

val run_app_with_latency :
  ?affinity:bool ->
  ?pass_by_value:bool ->
  app ->
  system ->
  params:Params.t ->
  Drust_appkit.Appkit.result * Drust_obs.Metrics.histo option
(** {!run_app}, additionally returning the run's merged
    [protocol.op_latency] histogram ([Metrics.merged_histo]) so
    experiments can report percentile columns.  [None] when the backend
    never touched the DRust protocol (e.g. GAM/Grappa/Original). *)

val single_node_baseline : ?params:Params.t -> app -> Drust_appkit.Appkit.result
(** The app run as-is ([Original] backend) on one full node — the
    normalization denominator of every figure.  Memoized on the full
    configuration (app, deployment, params); [params] defaults to
    [testbed ~nodes:1 ()]. *)

val precompute_baselines : ?jobs:int -> app list -> unit
(** Warm the baseline cache for [apps] (default parameters), fanning the
    runs out over {!Parallel.map}.  Sweeps call this first so the
    memoized baselines are ready before the measured grid starts. *)
