(** Type-safe universal values.

    The simulated global heap stores objects of many different application
    types at untyped global addresses.  Rather than resorting to [Obj], each
    storable type registers a [tag]; packing couples the value with its tag
    and unpacking checks the tag at runtime: a failed unpack raises
    {!Type_mismatch}, naming the tag the value was packed with. *)

type t
(** A packed value of some registered type. *)

type 'a tag
(** A runtime witness for type ['a]. *)

val create_tag : name:string -> 'a tag
(** [create_tag ~name] mints a fresh tag.  [name] is used in error
    messages only; tags with equal names are still distinct. *)

val tag_name : 'a tag -> string

val pack : 'a tag -> 'a -> t

val unpack_exn : 'a tag -> t -> 'a
(** [unpack_exn tag v] raises [Type_mismatch] when the tags disagree. *)

exception Type_mismatch of { expected : string; actual : string }
