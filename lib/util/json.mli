(** A minimal JSON reader and writer.

    One implementation serves every JSON artifact the repo produces or
    consumes — the benchmark summary ([Report]), the [bench_diff]
    regression gate, the SimPlan codec and flight dumps — so the tools
    need no external JSON dependency and all files share one canonical
    layout.

    The parser is a strict recursive-descent parser (no trailing
    garbage, no comments).  The writer is deterministic: the same value
    always renders to the same bytes, which is what lets plan replay
    and summary diffing compare files byte-for-byte.

    Plans, flight dumps and bench summaries decode through one set of
    strict readers ({!section-decoding}): every key of an object must be
    consumed by a reader and appear once, every value must have the
    type its reader asks for, and every failure comes back as
    [Error "<file>: <path>: <problem>"] with a jq-style path such as
    [.sim.faults.events[0].at] — never as an exception. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!load} with a byte-offset diagnostic. *)

val print : t -> string
(** Render canonically, ending with a newline.  Values whose inline
    form is short render on one line; longer arrays and objects break
    across lines with two-space indentation.  Numbers print so that
    parsing [print (Num f)] gives back [Num f] exactly (integers without a
    fractional part, other floats with just enough digits).  Raises
    [Invalid_argument] on non-finite numbers, which JSON cannot
    represent. *)

val escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes). *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the field [k]; [None] on missing keys or
    non-objects. *)

val load : path:string -> t
(** Parse a file holding one complete JSON document.  Raises
    {!Parse_error} or [Sys_error]. *)

val save : path:string -> t -> unit
(** Write [print t] to [path]. *)

(** {1:decoding Strict decoding} *)

type 'a reader
(** Decodes one value, failing with its path. *)

type obj
(** An object being decoded: its fields, and which of them a reader has
    consumed so far. *)

val string : string reader
val number : float reader

val int : int reader
(** A number with an integral value inside OCaml's [int] range. *)

val bool : bool reader
val list : 'a reader -> 'a list reader
val nullable : 'a reader -> 'a option reader

val refine : ('a -> ('b, string) result) -> 'a reader -> 'b reader
(** Check or convert what a reader decoded; [Error m] fails at the
    value's path with [m]. *)

val exactly : string -> string reader
(** The one string given, such as a schema tag. *)

val enum : string -> (string -> 'a option) -> 'a reader
(** [enum what of_name]: a string [of_name] knows; any other fails as
    an unknown [what]. *)

val assoc : 'a reader -> (string * 'a) list reader
(** An object used as a map: any keys, in document order, each once. *)

val obj : (obj -> 'a) -> 'a reader
(** An object with a fixed set of keys: run the field readers, then
    fail on any key none of them consumed.  Duplicate keys fail. *)

val req : obj -> string -> 'a reader -> 'a
(** A required field. *)

val opt : obj -> string -> 'a reader -> 'a option
(** An optional field: [None] when absent; present, it must decode. *)

val fail : obj -> ('a, unit, string, 'b) format4 -> 'a
(** Fail at the object's path, e.g. on an unknown [kind]. *)

val decode_file : path:string -> 'a reader -> ('a, string) result
(** {!load}, then run the reader: [Error "<file>: <path>: <problem>"]
    on the first failure; every error, syntax and I/O included, is
    prefixed by the file. *)
