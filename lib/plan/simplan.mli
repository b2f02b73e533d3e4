(** SimPlan: the declarative, replayable run artifact.

    Every simulation the repo performs — a figure cell, a chaos run, a
    CLI invocation, a fuzzer sample — is described by a [t]: topology
    (the {!Drust_machine.Params.t} fields that vary), DSM system,
    workload, fault schedule, and seeds, plus the output schema the run
    is expected to emit.  A plan has a canonical JSON encoding (built on
    {!Drust_util.Json}), a validator, and a single {!execute} entry
    point, so the exact scenario behind any result can be saved next to
    it and replayed byte-identically with [--plan FILE].

    Two plan kinds share the envelope:

    - a {e sim} plan drives one cluster: {!execute} builds the cluster
      from the topology, installs the fault events, runs the workload,
      and returns the outcome.  [bin/drust_sim.exe] and the fuzzer
      speak this kind.
    - a {e suite} plan names bench-harness experiments plus their knobs
      (node counts, churn cluster size, seed).  [bench/main.exe --plan]
      replays it through the same dispatch table a direct invocation
      uses, which is what makes replay trivially byte-identical.

    Schema documented in docs/SIMPLAN.md (kept two-way consistent with
    {!field_names} by check 8 of tools/check_docs.ml). *)

module Params = Drust_machine.Params
module Cluster = Drust_machine.Cluster
module Metrics = Drust_obs.Metrics

(** {1 Plan records} *)

type system = Drust | Gam | Grappa | Original
type app = Dataframe_app | Socialnet_app | Gemm_app | Kvstore_app

val system_name : system -> string
(** Display name ("DRust", "GAM", ...). *)

val all_systems : system list
(** [Drust; Gam; Grappa] — the three DSMs of Fig. 5. *)

val app_name : app -> string
val all_apps : app list

val make_backend : system -> Cluster.t -> Drust_dsm.Dsm.t

type topology = {
  nodes : int;
  cores_per_node : int;
  mem_per_node : int;  (** bytes *)
  ghz : float;
  seed : int;
}
(** The {!Params.t} fields a plan pins; everything else (network model,
    cycle costs) stays at {!Params.default}, which every current run
    uses. *)

val params_of : topology -> Params.t

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
(** [fault_seed] seeds the fault plan's own RNG stream (drop coins,
    jitter); the scenario constructors default it to [seed + 17],
    matching the historical chaos runs. *)

type workload =
  | App_run of { app : app; affinity : bool; pass_by_value : bool }
  | Ycsb_run of { mix : Drust_workloads.Ycsb.workload; ops : int }
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
  su_node_counts : int list option;  (** fig5's sweep sizes, when pinned *)
  su_churn_nodes : int option;  (** churn's cluster size (default 64) *)
  su_seed : int;
}

type spec = Sim of sim | Suite of suite

type t = { name : string; spec : spec; expect : string }
(** [name] keys the emitted artifact ([<name>.plan.json]); [expect] is
    the output schema the run produces ({!bench_schema}). *)

val bench_schema : string
(** The benchmark-summary schema this build writes
    (["drust-bench-summary/v3"]) — the single definition
    [Report.schema_version] re-exports. *)

val plan_schema : string
(** The plan envelope's own schema tag: ["drust-simplan/v1"]. *)

(** {1 Constructors} *)

val app_plan :
  ?name:string ->
  ?affinity:bool ->
  ?pass_by_value:bool ->
  params:Params.t ->
  app ->
  system ->
  t
(** One application run, no faults.  [name] defaults to
    ["<app>-<system>-<N>n"]. *)

val ycsb_plan :
  ?name:string ->
  params:Params.t ->
  mix:Drust_workloads.Ycsb.workload ->
  ops:int ->
  system ->
  t

val failover_plan :
  ?name:string -> ?spec:Scenario.failover_spec -> seed:int -> unit -> t
(** The canonical failover chaos run: small 4-core/64-MiB nodes, the
    victim crash as a plan fault event, fault seed [seed + 17]. *)

val churn_plan : ?name:string -> seed:int -> nodes:int -> unit -> t
(** The canonical churn run at [nodes]: schedule derived by
    {!Scenario.churn_spec_of} (raises [Invalid_argument] below 16
    nodes), victim crash as a plan fault event. *)

val suite_plan :
  ?node_counts:int list ->
  ?churn_nodes:int ->
  ?seed:int ->
  name:string ->
  string list ->
  t
(** A bench-harness invocation: the experiments to run plus their
    knobs.  [seed] defaults to 42. *)

(** {1 Codec} *)

val print : t -> string
(** Canonical bytes: {!load} of a file holding [print t] is [Ok t]. *)

val save : path:string -> t -> unit
val load : path:string -> (t, string) result
(** Decoding is strict ({!Drust_util.Json}'s readers): an unknown or
    duplicate key or a wrongly typed field, optional ones included, is
    an error.  [Error "<file>: ..."] covers unreadable files, JSON
    syntax errors and decode errors alike. *)

val field_names : string list
(** Every JSON field name the codec reads or writes, sorted — the
    runtime side of docs/SIMPLAN.md's schema table (check 8). *)

(** {1 Validation} *)

val validate : t -> (unit, string list) result
(** Structural validity: name usable as a file stem, topology positive
    and within [Drust_memory.Gaddr.max_nodes] (as are a suite's
    [node_counts] and [churn_nodes]), fault events in range and
    well-ordered, workload-specific consistency (e.g. a scenario plan's
    victim crash must appear in the fault events; a churn schedule must
    fit its node count).  {!execute} validates first and raises
    [Invalid_argument] on a bad plan. *)

(** {1 Execution} *)

type outcome_result =
  | App_done of {
      result : Drust_appkit.Appkit.result;
      latency : Metrics.histo option;
          (** merged [protocol.op_latency] distribution *)
      snapshot : Metrics.snapshot;
          (** full end-of-run metrics (fabric counters etc.) *)
    }
  | Failover_done of Scenario.failover_result
  | Churn_done of Scenario.churn_result

type outcome = {
  plan : t;
  result : outcome_result;
  violations : string list;
      (** DSan reports, when executed with [~sanitize:true] *)
  cluster : Cluster.t;
      (** the cluster the plan ran on, for its spans, flight recorder
          and metrics *)
}

val execute : ?sanitize:bool -> ?trace:bool -> t -> outcome
(** Run a sim plan: validate, build the cluster from the topology,
    schedule the fault events, run the workload to completion, and
    collect the outcome.  [sanitize] attaches a {e local} DSan
    sanitizer to the plan's cluster (parallel-safe: concurrent plan
    executions never share a sanitizer) and returns its reports.
    [trace] enables the cluster's span tracer before anything runs, so
    the one run is both the reported and the traced one (recording
    never changes a result).
    Suite plans do not execute here — they replay through the bench
    CLI's dispatch table — so passing one raises [Invalid_argument],
    as does a plan that fails {!validate}. *)
