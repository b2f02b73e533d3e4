(** The one host wall-clock read of the libraries. *)

val timed : (unit -> 'a) -> 'a * float
(** [f ()] and the host wall-clock seconds it took.  Machine-dependent:
    print it to stderr or record it as an opt-in [host_ms] only, so
    stdout stays comparable across runs. *)
