(* Per-cluster environment: a typed heterogeneous store that replaces the
   process-global uid-keyed side tables higher layers used to keep.

   Each layer declares its keys once at module-initialization time; the
   bindings themselves live inside the owning [Cluster.t], so they are
   garbage-collected with the cluster instead of accumulating in global
   Hashtbls, and two clusters running in different domains share no
   mutable state through this module (key allocation is atomic).

   The value encoding reuses the private-exception trick of
   [Drust_util.Univ]: every key owns an exception constructor only it can
   build or open, so [get] is type-safe without magic. *)

type 'a key = {
  id : int;
  inject : 'a -> exn;
  project : exn -> 'a option;
}

let next_key_id =
  Atomic.make 0
[@@dlint.allow
  "globals: Env key ids are process-wide by construction (a key works \
   across every cluster's Env); atomic for parallel sweep domains"]

let key (type a) () : a key =
  let module M = struct
    exception E of a
  end in
  {
    id = Atomic.fetch_and_add next_key_id 1;
    inject = (fun v -> M.E v);
    project = (function M.E v -> Some v | _ -> None);
  }

type t = { slots : exn Drust_util.Intmap.t }

let create () = { slots = Drust_util.Intmap.create () }

let get t k ~init =
  match Option.bind (Drust_util.Intmap.find_opt t.slots k.id) k.project with
  | Some v -> v
  | None ->
      let v = init () in
      Drust_util.Intmap.set t.slots k.id (k.inject v);
      v
