(** Table 2: dereference latency of DRust's checked Box pointer vs an
    ordinary Rust Box (8-byte local uncached object).  Paper values in
    cycles: DRust 395 / 356 / 536 and Rust 364 / 332 / 496
    (average / median / P90). *)

type row = {
  label : string;
  average : float;
  median : float;
  p90 : float;
}

val run : ?seed:int -> unit -> row list
(** 200,000 sampled dereferences per pointer kind. *)
