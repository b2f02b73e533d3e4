(** Seeded SimPlan fuzzing with greedy shrinking.

    The fuzzer samples {e valid} plans ({!plans} — every sample passes
    [Simplan.validate]), executes each under a local sanitizer
    ({!default_oracle}), and when a plan provokes a DSan violation or a
    crash, shrinks it ({!shrink}) to a minimal plan that still fails —
    the artifact worth committing as a regression.

    Everything here is deterministic: the same [seed] yields the same
    plans, and shrinking explores candidates in a fixed order, so a
    pinned (seed, oracle) pair always reproduces the same minimal plan.
    The module is deliberately sequential and [Parallel]-free (it sits
    below [lib/experiments]); [bench/main.exe fuzz] fans the oracle out
    over domains itself — safe because {!Simplan.execute} attaches a
    {e local} sanitizer per plan cluster. *)

type verdict =
  | Pass
  | Violations of string list  (** DSan reports *)
  | Crashed of string  (** the exception, printed *)

val is_failure : verdict -> bool
(** [Violations _] and [Crashed _]. *)

val verdict_to_string : verdict -> string

val default_oracle : Simplan.t -> verdict
(** [Simplan.execute ~sanitize:true], catching any exception the run
    raises (including [Invalid_argument] from a plan a shrink candidate
    made invalid — though {!shrink} filters those before calling). *)

val plans : seed:int -> count:int -> max_nodes:int -> Simplan.t list
(** [count] valid sim plans sampled from [seed].  The mix leans on the
    chaos scenarios (failover specs with perturbed schedules and extra
    partitions/degrades, churn at >= 16 nodes when [max_nodes] allows)
    plus YCSB and app runs across all systems; fault injection into
    plain app/YCSB runs is limited to lossless link degradation, since
    their clients do not retry.  [max_nodes] caps every topology.
    Raises [Invalid_argument] when [max_nodes < 4]. *)

val shrink :
  oracle:(Simplan.t -> verdict) -> Simplan.t -> Simplan.t * verdict
(** Greedily minimise a failing plan: propose simplifications (fewer
    nodes, fewer fault events, fewer keys/ops, shorter runs, canonical
    specs) in a fixed order, keep the first candidate the oracle still
    fails, and repeat until none fails.  Returns the minimal plan and
    its verdict.  If the input plan itself passes [oracle], it is
    returned unchanged with that [Pass]. *)
