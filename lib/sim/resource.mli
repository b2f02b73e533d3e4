(** Counted resources with FIFO queuing.

    Models contended hardware: a node's CPU cores, a NIC's DMA engines, a
    directory-processing thread.  A process that cannot acquire a unit
    blocks until one is released; waiters are served in arrival order so
    queuing delay is observable (this is what creates the home-node
    bottlenecks of the Grappa and GAM baselines under skewed load). *)

type t

val create : Engine.t -> capacity:int -> t
(** [capacity] must be positive. *)

val acquire : t -> unit
(** Blocks until a unit is available, then holds it. *)

val release : t -> unit
(** Releases a held unit; hands it directly to the longest-waiting
    process if any.  Raises [Invalid_argument] when nothing is held. *)

(** {1 Utilization accounting} *)

val utilization : t -> now:float -> float
(** Average busy fraction from creation (or last reset) to [now]. *)

val reset_utilization : t -> now:float -> unit
