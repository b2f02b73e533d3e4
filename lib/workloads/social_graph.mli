(** Synthetic social graph with a power-law follower distribution.

    Stands in for the Socfb-Penn94 dataset (§7.1): a fixed user
    population where a few celebrities have large follower counts and the
    tail has a handful each.  Request generators draw authors and readers
    zipf-skewed, as real feeds are. *)

type t

val create : ?theta:float -> ?max_fanout:int -> users:int -> seed:int -> unit -> t
(** Defaults: [theta = 0.9], [max_fanout = 256]. *)

val users : t -> int

val fanout : t -> int -> int
(** Number of followers of a user (deterministic per user). *)

val followers : t -> int -> int list
(** The follower ids themselves (bounded by [max_fanout]). *)

val sample_author : t -> Drust_util.Rng.t -> int
(** Post authors, skewed toward popular users. *)

val sample_reader : t -> Drust_util.Rng.t -> int
