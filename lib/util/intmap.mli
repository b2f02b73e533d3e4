(** Flat open-addressing hash map with non-negative int keys.

    A cache-friendly replacement for [(int, 'a) Hashtbl.t] in the
    simulator's per-object side tables: linear probing over two parallel
    flat arrays, multiplicative hashing, no per-binding allocation.
    Keys must be [>= 0] (negative values are reserved slot markers);
    {!set} raises [Invalid_argument] otherwise.

    Not thread-safe.  Iteration order is unspecified (as with
    [Hashtbl]) — callers that need determinism must sort.  See
    docs/PERFORMANCE.md for the design. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] is a size hint (default 16), rounded up to a power of
    two; the table grows as needed regardless. *)

val find : 'a t -> int -> 'a
(** Allocation-free lookup; raises [Not_found] when absent. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val set : 'a t -> int -> 'a -> unit
(** Insert or replace. *)

val remove : 'a t -> int -> unit
(** No-op when the key is absent. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
