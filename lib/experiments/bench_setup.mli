(** Shared experiment plumbing: the testbed parameters and normalized
    application runs.

    The run types are {!Drust_plan.Simplan}'s — the plan layer is the
    single definition of what a run is — and {!run_app} is a thin wrapper
    over [Simplan.execute], so every figure cell is described by a
    replayable plan. *)

module Params = Drust_machine.Params

val testbed : ?nodes:int -> ?seed:int -> unit -> Params.t
(** The paper's testbed: 16 cores / node at 2.6 GHz on 40 Gbps IB. *)

val fixed_testbed : nodes:int -> Params.t
(** Fig. 7: 16 cores and 64 GB total, split evenly over [nodes]. *)

val run_app :
  ?affinity:bool ->
  ?pass_by_value:bool ->
  Drust_plan.Simplan.app ->
  Drust_plan.Simplan.system ->
  params:Params.t ->
  Drust_appkit.Appkit.result
(** Build a fresh cluster from [params], instantiate the system's backend,
    run the app's default configuration, and return the result.
    [affinity] turns on the DataFrame TBox/spawn_to annotations (DRust
    only).  [pass_by_value] selects SocialNet's original RPC deployment. *)

val run_app_with_latency :
  ?affinity:bool ->
  ?pass_by_value:bool ->
  Drust_plan.Simplan.app ->
  Drust_plan.Simplan.system ->
  params:Params.t ->
  Drust_appkit.Appkit.result * Drust_obs.Metrics.histo option
(** {!run_app}, additionally returning the run's merged
    [protocol.op_latency] histogram ([Metrics.merged_histo]) so
    experiments can report percentile columns.  [None] when the backend
    never touched the DRust protocol (e.g. GAM/Grappa/Original). *)

val single_node_baseline :
  ?params:Params.t -> Drust_plan.Simplan.app -> Drust_appkit.Appkit.result
(** The app run as-is ([Original] backend) on one full node — the
    normalization denominator of every figure.  Memoized on the full
    configuration (app, deployment, params); [params] defaults to
    [testbed ~nodes:1 ()]. *)

val precompute_baselines : ?jobs:int -> Drust_plan.Simplan.app list -> unit
(** Warm the baseline cache for [apps] (default parameters), fanning the
    runs out over {!Parallel.map}.  Sweeps call this first so the
    memoized baselines are ready before the measured grid starts. *)
