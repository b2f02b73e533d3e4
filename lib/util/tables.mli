(** Deterministic views over [Hashtbl].

    Bucket order is an implementation detail; these are the blessed way
    to iterate a table when the result can reach any output.  See
    docs/LINTS.md (the [determinism] pass). *)

val sorted_bindings :
  ('k, 'v) Hashtbl.t -> cmp:('k -> 'k -> int) -> ('k * 'v) list
(** All bindings, sorted (stably) by key under [cmp]. *)

val sorted_keys : ('k, 'v) Hashtbl.t -> cmp:('k -> 'k -> int) -> 'k list
(** All keys, sorted under [cmp]. *)
