(** Colored global addresses (the paper's pointer layout, Fig. 8).

    A global address packs three fields into one 63-bit OCaml integer:

    {v
      bits 62..47 : 16-bit color (version number of the pointed-to value)
      bits 46..40 : 7-bit node id (up to 128 servers)
      bits 39..0  : 40-bit offset within the node's heap partition (1 TiB)
    v}

    The color is the heart of DRust's local-write optimization: bumping it
    changes the cache-lookup key without moving the object, so stale cached
    copies on other nodes can never be returned again.  [clear_color]
    recovers the {e physical} address used for actual storage access. *)

type t = private int
(** A colored global address.  The [private] row keeps arithmetic out of
    client code while allowing O(1) hashing and comparison. *)

val max_color : int
(** [2^16 - 1]; reaching it triggers the move-on-overflow policy. *)

val max_nodes : int
val max_offset : int

val make : node:int -> offset:int -> t
(** A color-0 address.  Raises [Invalid_argument] if a field overflows. *)

val node_of : t -> int
val offset_of : t -> int
val color_of : t -> int

val with_color : t -> int -> t
(** [with_color a c] replaces the color field. *)

val clear_color : t -> t
(** The paper's [ClearColor]: the physical address (color = 0). *)

val bump_color : t -> t
(** [bump_color a] increments the color.  Raises [Color_overflow] when the
    color is already {!max_color}; the caller must then move the object. *)

exception Color_overflow of t

val to_int : t -> int
val of_int_exn : int -> t
(** Validates field ranges; for deserialization in tests. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
