(** GEMM: blocked general matrix multiply (the paper's BLAS workload).

    The divide-and-conquer port of §7.1: inputs A and B are stored in
    shared memory as g × g grids of square sub-matrix blocks, distributed
    round-robin; each worker thread computes a set of output blocks,
    reading row blocks of A and column blocks of B repeatedly (2g block
    reads per output block) and writing the result.  High compute
    intensity (~300 cycles/byte) with strong reuse: systems that can cache
    fetched blocks locally (DRust, GAM) scale well; Grappa cannot cache
    and re-delegates every access (§7.2). *)

type config = {
  grid : int;  (** g: the matrices are g x g blocks *)
  block_bytes : int;
  intensity : float;  (** cycles per byte of one block-pair multiply *)
  strips : int;
      (** inner-loop granularity: each block-pair multiply streams its
          operands in this many slices, re-touching the shared blocks —
          cache-friendly for DRust/GAM, repeated delegations for Grappa *)
}

val default_config : config

val run :
  cluster:Drust_machine.Cluster.t -> backend:Drust_dsm.Dsm.t -> config ->
  Drust_appkit.Appkit.result
(** Throughput unit: block-pair multiplications per second. *)
