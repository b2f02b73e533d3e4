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
let read ctx b =
  Protocol.note_app ctx ~g:(Protocol.gaddr b.o) ~verb:"read"
    ~tag:(Univ.tag_name b.tag);
  Univ.unpack_exn b.tag (Protocol.owner_read ctx b.o)

let owner b = b.o
let gaddr b = Protocol.gaddr b.o
let drop ctx b = Protocol.drop_owner ctx b.o

module Imm = struct
  type 'a r = { i : Protocol.imm; itag : 'a Univ.tag }

  let borrow ctx b = { i = Protocol.borrow_imm ctx b.o; itag = b.tag }
  let clone ctx r = { r with i = Protocol.clone_imm ctx r.i }
  let deref ctx r = Univ.unpack_exn r.itag (Protocol.imm_deref ctx r.i)
  let drop ctx r = Protocol.drop_imm ctx r.i
end

let with_borrow_mut ctx b f =
  let m = Protocol.borrow_mut ctx b.o in
  match f (Univ.unpack_exn b.tag (Protocol.mut_read ctx m)) with
  | new_value, result ->
      Protocol.mut_write ctx m (Univ.pack b.tag new_value);
      Protocol.drop_mut ctx m;
      result
  | exception e ->
      Protocol.drop_mut ctx m;
      raise e

module Tbox = struct
  let tie ctx ~parent ~child = Protocol.tie ctx ~parent:parent.o ~child:child.o
end
