(* Per-cluster environment: a typed heterogeneous store that replaces the
   process-global uid-keyed side tables higher layers used to keep.

   Each layer declares its keys once at module-initialization time; the
   bindings themselves live inside the owning [Cluster.t], so they are
   garbage-collected with the cluster instead of accumulating in global
   Hashtbls, and two clusters running in different domains share no
   mutable state through this module (key allocation is atomic).

   The value encoding reuses the private-exception trick of
   [Drust_util.Univ]: every key owns an exception constructor only it can
   build or open, so [find] is type-safe without magic. *)

type binding = { b_name : string; b_value : exn }

type 'a key = {
  id : int;
  name : string;
  inject : 'a -> exn;
  project : exn -> 'a option;
}

let next_key_id =
  Atomic.make 0
[@@dlint.allow
  "globals: Env key ids are process-wide by construction (a key works \
   across every cluster's Env); atomic for parallel sweep domains"]

let key (type a) ~name : a key =
  let module M = struct
    exception E of a
  end in
  {
    id = Atomic.fetch_and_add next_key_id 1;
    name;
    inject = (fun v -> M.E v);
    project = (function M.E v -> Some v | _ -> None);
  }

type t = { slots : binding Drust_util.Intmap.t }

let create () = { slots = Drust_util.Intmap.create () }

let find t k =
  match Drust_util.Intmap.find_opt t.slots k.id with
  | None -> None
  | Some b -> k.project b.b_value

let set t k v =
  Drust_util.Intmap.set t.slots k.id { b_name = k.name; b_value = k.inject v }

let get t k ~init =
  match find t k with
  | Some v -> v
  | None ->
      let v = init () in
      set t k v;
      v

let mem t k = Drust_util.Intmap.mem t.slots k.id
let remove t k = Drust_util.Intmap.remove t.slots k.id
let length t = Drust_util.Intmap.length t.slots

let names t =
  Drust_util.Intmap.fold (fun _ b acc -> b.b_name :: acc) t.slots []
  |> List.sort String.compare
