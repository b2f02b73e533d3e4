(** A minimal JSON reader and writer, and the codecs built on them.

    One implementation serves every JSON artifact the repo produces or
    consumes — the benchmark summary ([Report]), the [bench_diff]
    regression gate, the SimPlan codec and flight dumps — so the tools
    need no external JSON dependency and all files share one canonical
    layout.

    The parser is a strict recursive-descent parser (no trailing
    garbage, no comments).  The writer is deterministic: the same value
    always renders to the same bytes, which is what lets plan replay
    and summary diffing compare files byte-for-byte.

    Plans, flight dumps and bench summaries are each declared once, as
    a {!codec} ({!section-codecs}) giving encoder, strict decoder and
    field list: every key of an object must be declared and appear
    once, every value must have its declared type, and every failure
    comes back as [Error "<file>: <path>: <problem>"] with a jq-style
    path such as [.sim.faults.events[0].at] — never as an exception. *)

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

(** {1:codecs Codecs} *)

type 'a codec
(** How an ['a] maps to JSON, both ways. *)

val encode : 'a codec -> 'a -> t

val decode_file : path:string -> 'a codec -> ('a, string) result
(** {!load}, then decode: [Error "<file>: <path>: <problem>"] on the
    first failure, syntax and I/O errors included. *)

val field_names : 'a codec -> string list
(** Every object key the codec declares, at any depth; sorted. *)

val string : string codec
val bool : bool codec

val int : int codec
(** A number with an integral value inside OCaml's [int] range. *)

val number : float codec
(** A finite number: [1e999] overflows, and could not be written back. *)

val list : 'a codec -> 'a list codec
val nullable : 'a codec -> 'a option codec

val assoc : 'a codec -> (string * 'a) list codec
(** An object used as a map: any keys, in document order, each once. *)

val enum : string -> (string * 'a) list -> 'a codec
(** [enum what table]: a string naming a value of [table]; another
    string fails as an unknown [what], and encoding a value outside
    [table] raises [Invalid_argument]. *)

val refine : ('a -> ('b, string) result) -> ('b -> 'a) -> 'a codec -> 'b codec
(** [refine check back c]: [Error m] from [check] fails at the value's
    path; encoding applies [back] first. *)

val check : ('a -> (unit, string * string) result) -> 'a codec -> 'a codec
(** [Error (sub, m)] fails at the value's path extended by the relative
    jq-style path [sub], such as [".events[3].node"]. *)

(** {2 Objects}

    A constructor, then its fields in the order they are written:
    {[
      record (fun nodes seed -> { nodes; seed })
      |> field "nodes" int (fun t -> t.nodes)
      |> field "seed" int (fun t -> t.seed)
      |> seal
    ]}
    Decoding fails on a duplicate key, checks the {!const} tags, reads
    the fields last to first, and fails on a key no field declares. *)

type ('r, 'k) fields
(** Fields of an ['r] declared so far; ['k] is what the constructor
    returns once applied to their values, ['r] when all are declared. *)

val record : 'k -> ('r, 'k) fields

val field :
  string -> 'a codec -> ('r -> 'a) -> ('r, 'a -> 'k) fields -> ('r, 'k) fields
(** A required field and its getter. *)

val optional :
  string -> 'a codec -> ('r -> 'a option) ->
  ('r, 'a option -> 'k) fields -> ('r, 'k) fields
(** Absent decodes to [None]; [None] is not written. *)

val const : string -> string -> ('r, 'k) fields -> ('r, 'k) fields
(** A tag, such as a schema version: always written, checked first. *)

val seal : ('r, 'r) fields -> 'r codec

type 'a case

val case :
  string -> ('p, 'p) fields -> ('p -> 'a) -> ('a -> 'p option) -> 'a case
(** [case kind fields inj proj]: the values [proj] maps to a payload,
    as its [fields] tagged ["kind": kind]. *)

val variant : string -> 'a case list -> 'a codec
(** [variant what cases]: an unknown ["kind"] fails as an unknown
    [what]. *)
