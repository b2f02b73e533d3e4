(** Unit helpers shared across the simulator.

    Simulated time is a [float] in seconds; data sizes are [int] bytes;
    compute work is expressed in CPU cycles and converted to seconds by the
    per-node clock frequency. *)

val kib : int -> int
val mib : int -> int
val gib : int -> int

val pp_bytes : Format.formatter -> int -> unit
(** Human-readable byte count ("1.5 MiB"). *)

val pp_seconds : Format.formatter -> float -> unit
(** Human-readable duration ("3.6 us"). *)

val pp_rate : Format.formatter -> float -> unit
(** Human-readable operation rate ("1.2 Mops/s"). *)
