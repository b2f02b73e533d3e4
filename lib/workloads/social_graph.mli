(** Synthetic social graph with a power-law follower distribution.

    Stands in for the Socfb-Penn94 dataset (§7.1): a fixed user
    population where a few celebrities have large follower counts and the
    tail has a handful each.  Request generators draw authors and readers
    zipf-skewed, as real feeds are. *)

type t

val create : users:int -> seed:int -> unit -> t
(** Authors and readers are drawn zipf(0.9); follower counts fall with
    popularity rank from 16. *)

val followers : t -> int -> int list
(** A user's follower ids, at most 16 (deterministic per user): a post
    fans out to at most this many home timelines. *)

val sample_author : t -> Drust_util.Rng.t -> int
(** Post authors, skewed toward popular users. *)

val sample_reader : t -> Drust_util.Rng.t -> int
