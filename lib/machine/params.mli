(** Cluster hardware parameters.

    Defaults mirror the paper's testbed (§7): 8 nodes, dual Xeon E5-2640 v3
    (16 cores at 2.6 GHz), 128 GB RAM, 40 Gbps InfiniBand.  Local memory
    timing is calibrated so a plain local pointer dereference costs the 364
    cycles the paper measures for ordinary Rust [Box] (Table 2) and DRust's
    checked dereference costs ~30 cycles more. *)

type t = {
  nodes : int;
  cores_per_node : int;
  mem_per_node : int;  (** heap partition capacity in bytes *)
  ghz : float;  (** core clock in GHz; converts cycles to seconds *)
  net : Drust_net.Model.t;
  local_deref_cycles : float;
      (** plain uncached local object dereference (Table 2 "Rust" row) *)
  runtime_check_cycles : float;
      (** extra cycles for DRust's location check on dereference *)
  cache_hit_cycles : float;
      (** hitting the per-node read-only cache hashmap *)
  flush_grain : float;
      (** compute is batched into core-occupying bursts of at least this
          many seconds to keep the event count manageable *)
  seed : int;
}

val default : t
(** The paper's 8-node testbed. *)

val fixed_resource : t -> total_cores:int -> total_mem:int -> nodes:int -> t
(** Fig. 7 setup: distribute a fixed core/memory budget evenly over
    [nodes] servers. *)

val cycles_to_seconds : t -> float -> float
