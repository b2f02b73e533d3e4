module Ctx = Drust_machine.Ctx

type handle = ..
type mutex = ..

exception Foreign_handle of string

type t = {
  name : string;
  alloc : Ctx.t -> size:int -> Drust_util.Univ.t -> handle;
  alloc_on : Ctx.t -> node:int -> size:int -> Drust_util.Univ.t -> handle;
  read : Ctx.t -> handle -> Drust_util.Univ.t;
  write : Ctx.t -> handle -> Drust_util.Univ.t -> unit;
  update : Ctx.t -> handle -> (Drust_util.Univ.t -> Drust_util.Univ.t) -> unit;
  free : Ctx.t -> handle -> unit;
  read_part : Ctx.t -> handle -> bytes:int -> unit;
  process : Ctx.t -> handle -> cycles:float -> Drust_util.Univ.t;
  process_update : Ctx.t -> handle -> cycles:float
    -> (Drust_util.Univ.t -> Drust_util.Univ.t) -> unit;
  home : handle -> int;
  tie : Ctx.t -> parent:handle -> child:handle -> unit;
  supports_affinity : bool;
  mutex_create : Ctx.t -> mutex;
  mutex_lock : Ctx.t -> mutex -> unit;
  mutex_unlock : Ctx.t -> mutex -> unit;
}

let foreign name = raise (Foreign_handle name)
