type t = { name : string; store : exn }

(* Each tag owns a private exception constructor: packing wraps the value in
   the constructor, unpacking pattern-matches on it.  The closure pair hides
   the constructor so only this tag can build or open such values. *)
type 'a tag = {
  tag_name : string;
  inject : 'a -> exn;
  project : exn -> 'a option;
}

exception Type_mismatch of { expected : string; actual : string }

let create_tag (type a) ~name : a tag =
  let module M = struct
    exception E of a
  end in
  {
    tag_name = name;
    inject = (fun v -> M.E v);
    project = (function M.E v -> Some v | _ -> None);
  }

let tag_name tag = tag.tag_name

let pack tag v = { name = tag.tag_name; store = tag.inject v }

let unpack_exn tag t =
  match tag.project t.store with
  | Some v -> v
  | None -> raise (Type_mismatch { expected = tag.tag_name; actual = t.name })
