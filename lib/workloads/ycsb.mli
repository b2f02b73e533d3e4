(** YCSB key-value workload generator.

    The paper's KV-store evaluation uses the zipf(0.99) 90 % GET / 10 %
    SET mix (§7.1); this module also provides the six standard YCSB core
    workloads (A–F) for the extended KV benchmark:

    - A: update-heavy (50 % read / 50 % update, zipfian)
    - B: read-mostly (95 % read / 5 % update, zipfian)
    - C: read-only (100 % read, zipfian)
    - D: read-latest (95 % read / 5 % insert; reads skew to recent keys)
    - E: short ranges (95 % scan / 5 % insert)
    - F: read-modify-write (50 % read / 50 % RMW, zipfian) *)

type op =
  | Get of int
  | Set of int
  | Insert of int  (** append a fresh key *)
  | Scan of int * int  (** [Scan (start, len)]: a short range read *)
  | Rmw of int  (** read-modify-write of one key *)

type workload = A | B | C | D | E | F

val workload_name : workload -> string
val all_workloads : workload list

type t

val create : keys:int -> seed:int -> unit -> t
(** The paper's mix: zipf(0.99) keys, 90 % GETs and 10 % SETs. *)

val with_zipf : zipf:Drust_util.Zipf.t -> get_ratio:float -> seed:int -> t
(** Share one (expensive-to-build) zipf table across many client
    generators; each generator keeps its own RNG stream. *)

val create_workload :
  workload -> ?zipf:Drust_util.Zipf.t -> keys:int -> seed:int -> unit -> t
(** One of the standard core workloads.  Pass [zipf] to share the table
    across clients. *)

val next : t -> op

val hot_share : t -> k:int -> float
(** Probability mass of the [k] hottest keys (skew diagnostics). *)
