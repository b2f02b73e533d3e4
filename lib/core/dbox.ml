module Ctx = Drust_machine.Ctx
module Univ = Drust_util.Univ

type 'a t = { o : Protocol.owner; tag : 'a Univ.tag }

let make ctx ~tag ~size v =
  { o = Protocol.create ctx ~size (Univ.pack tag v); tag }

let make_on ctx ~node ~tag ~size v =
  { o = Protocol.create_on ctx ~node ~size (Univ.pack tag v); tag }

(* App-level attribution for the DSan sanitizer: tag the typed access
   with the Univ tag name before the protocol-level events fire, so a
   violation report can say which application object was involved. *)
let note ctx b verb =
  Protocol.note_app ctx ~g:(Protocol.gaddr b.o) ~verb ~tag:(Univ.tag_name b.tag)

let read ctx b =
  note ctx b "read";
  Univ.unpack_exn b.tag (Protocol.owner_read ctx b.o)

let write ctx b v =
  note ctx b "write";
  Protocol.owner_write ctx b.o (Univ.pack b.tag v)

let modify ctx b f =
  note ctx b "modify";
  Protocol.owner_modify ctx b.o (fun u ->
      Univ.pack b.tag (f (Univ.unpack_exn b.tag u)))

let owner b = b.o
let gaddr b = Protocol.gaddr b.o

let transfer ctx b ~to_node = Protocol.transfer ctx b.o ~to_node
let drop ctx b = Protocol.drop_owner ctx b.o

module Imm = struct
  type 'a r = { i : Protocol.imm; itag : 'a Univ.tag }

  let borrow ctx b = { i = Protocol.borrow_imm ctx b.o; itag = b.tag }
  let clone ctx r = { r with i = Protocol.clone_imm ctx r.i }
  let deref ctx r = Univ.unpack_exn r.itag (Protocol.imm_deref ctx r.i)
  let drop ctx r = Protocol.drop_imm ctx r.i
end

module Mut = struct
  type 'a r = { m : Protocol.mut; mtag : 'a Univ.tag }

  let borrow ctx b = { m = Protocol.borrow_mut ctx b.o; mtag = b.tag }
  let deref ctx r = Univ.unpack_exn r.mtag (Protocol.mut_read ctx r.m)
  let write ctx r v = Protocol.mut_write ctx r.m (Univ.pack r.mtag v)

  let modify ctx r f =
    Protocol.mut_modify ctx r.m (fun u ->
        Univ.pack r.mtag (f (Univ.unpack_exn r.mtag u)))

  let drop ctx r = Protocol.drop_mut ctx r.m
end

let with_borrow ctx b f =
  let r = Imm.borrow ctx b in
  match f (Imm.deref ctx r) with
  | v ->
      Imm.drop ctx r;
      v
  | exception e ->
      Imm.drop ctx r;
      raise e

let with_borrow_mut ctx b f =
  let m = Mut.borrow ctx b in
  match f (Mut.deref ctx m) with
  | new_value, result ->
      Mut.write ctx m new_value;
      Mut.drop ctx m;
      result
  | exception e ->
      Mut.drop ctx m;
      raise e

module Tbox = struct
  let tie ctx ~parent ~child = Protocol.tie ctx ~parent:parent.o ~child:child.o
end
