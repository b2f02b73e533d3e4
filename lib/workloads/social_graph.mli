(** Synthetic social graph with a power-law follower distribution.

    Stands in for the Socfb-Penn94 dataset (§7.1): a fixed user
    population where a few celebrities have large follower counts and the
    tail has a handful each.  Request generators draw authors and readers
    zipf-skewed, as real feeds are. *)

type t

val max_fanout : int
(** The bound on a follower list (16): a post fans out to at most this
    many home timelines. *)

val create : users:int -> seed:int -> unit -> t
(** Authors and readers are drawn zipf(0.9); follower counts fall with
    popularity rank from [max_fanout]. *)

val users : t -> int

val fanout : t -> int -> int
(** Number of followers of a user (deterministic per user). *)

val followers : t -> int -> int list
(** The follower ids themselves (at most {!max_fanout}). *)

val sample_author : t -> Drust_util.Rng.t -> int
(** Post authors, skewed toward popular users. *)

val sample_reader : t -> Drust_util.Rng.t -> int
