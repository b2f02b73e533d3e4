(** The virtual clock's storage, shared by the engine that moves it and
    the tracer that reads it ([Drust_obs] sits below [Drust_sim], so
    neither can name the other's types).

    A float-only record, so its field is stored unboxed: the engine's
    clock moves without allocating, and a reader gets a raw float rather
    than a box returned through a closure. *)

type t = { mutable now : float  (** virtual seconds since the start *) }
