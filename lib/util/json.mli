(** A minimal JSON reader and writer.

    One implementation serves every JSON artifact the repo produces or
    consumes — the benchmark summary ([Report]), the [bench_diff]
    regression gate, and the SimPlan codec — so the tools need no
    external JSON dependency and all files share one canonical layout.

    The reader is a strict recursive-descent parser (no trailing
    garbage, no comments).  The writer is deterministic: the same value
    always renders to the same bytes, which is what lets plan replay
    and summary diffing compare files byte-for-byte. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse} / {!load} with a byte-offset diagnostic. *)

val parse : string -> t
(** Parse a complete JSON document.  Raises {!Parse_error}. *)

val print : t -> string
(** Render canonically, ending with a newline.  Values whose inline
    form is short render on one line; longer arrays and objects break
    across lines with two-space indentation.  Numbers print so that
    [parse (print (Num f)) = Num f] exactly (integers without a
    fractional part, other floats with just enough digits).  Raises
    [Invalid_argument] on non-finite numbers, which JSON cannot
    represent. *)

val escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes). *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the field [k]; [None] on missing keys or
    non-objects. *)

val to_int : t -> int option
(** The integer a number holds: [Some n] for a [Num] with an integral
    value inside OCaml's [int] range, [None] for anything else
    (fractions, strings, ...).  The integer decoder the SimPlan and
    flight-dump codecs share. *)

val load : path:string -> t
(** {!parse} the contents of a file.  Raises {!Parse_error} or
    [Sys_error]. *)

val save : path:string -> t -> unit
(** Write [print t] to [path]. *)
