module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster

type record = {
  ctx : Ctx.t;
  mutable running : bool;
  mutable migrate_to : int option;
  mutable migrations : int;
}

(* One bucket of records per cluster, stored in the cluster's Env so the
   registry dies with the cluster. *)
let bucket_key : record list ref Drust_machine.Env.key =
  Drust_machine.Env.key ()

let bucket cluster =
  Drust_machine.Env.get (Cluster.env cluster) bucket_key ~init:(fun () -> ref [])

let register ctx =
  let r = { ctx; running = true; migrate_to = None; migrations = 0 } in
  let b = bucket (Ctx.cluster ctx) in
  b := r :: !b;
  r

let unregister r =
  r.running <- false;
  let b = bucket (Ctx.cluster r.ctx) in
  b :=
    List.filter
      (fun r' ->
        ((r' != r)
        [@dlint.allow
          "determinism: identity test on unique mutable records — removing \
           exactly this registration, not a structural twin"]))
      !b

let live_threads cluster = List.filter (fun r -> r.running) !(bucket cluster)

let threads_on cluster ~node =
  List.filter (fun r -> r.ctx.Ctx.node = node) (live_threads cluster)


let order_migration r ~target = r.migrate_to <- Some target
