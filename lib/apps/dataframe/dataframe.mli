(** DataFrame: in-memory columnar analytics (the paper's Polars-based
    workload, §7.1).

    The dataset is a table of chunked columns spread round-robin over the
    cluster.  Each query runs in two overlapping phases, exactly as the
    paper describes:

    - {b index build}: builder threads (one per node) concurrently insert
      entries into a {e shared index table} mapping each destination
      chunk to its source chunks — many small writes to objects packed
      tightly together (GAM's false-sharing nightmare, Grappa's
      home-node hotspot);
    - {b chunk processing}: one worker per destination chunk looks up its
      index entry, fetches the source chunks (its own partition plus a
      shuffled partner — joins and groupbys read across partitions),
      computes at the app's ~110 cycles/byte intensity, and writes the
      output chunk, which the {e next} dependent query consumes.

    Affinity annotations (Fig. 6): [use_tbox] ties each partition's
    chunks together for co-location and check-free local dereferences;
    [use_spawn_to] places each worker on its input partition's server. *)

module Ctx = Drust_machine.Ctx

type config = {
  partitions : int;  (** destination chunks per query *)
  chunk_bytes : int;
  index_entries : int;  (** shared index-table entries per query *)
  intensity : float;  (** compute cycles per byte processed *)
  queries : int;
      (** dependent queries, cycling filter, join, groupby (each output
          gathers 4 partitions), join *)
  use_tbox : bool;
  use_spawn_to : bool;
}

val default_config : config
(** Sized so a full Fig. 5a sweep completes in seconds of wall-clock. *)

val run :
  cluster:Drust_machine.Cluster.t -> backend:Drust_dsm.Dsm.t -> config ->
  Drust_appkit.Appkit.result
(** Throughput unit: queries per second. *)
