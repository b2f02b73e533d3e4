module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Engine = Drust_sim.Engine
module Univ = Drust_util.Univ
module Dthread = Drust_runtime.Dthread

type result = {
  ops : float;
  elapsed : float;
  throughput : float;
  extra : (string * float) list;
}

(* Measurement start markers, kept in the cluster environment and keyed
   by thread id of the main process. *)
let marks_key : (int, float) Hashtbl.t Drust_machine.Env.key =
  Drust_machine.Env.key ()

let marks cluster =
  Drust_machine.Env.get (Cluster.env cluster) marks_key ~init:(fun () ->
      Hashtbl.create 8)

let start_measurement ctx =
  Hashtbl.replace
    (marks (Ctx.cluster ctx))
    ctx.Ctx.thread_id
    (Engine.now (Ctx.engine ctx))

let run_main cluster body =
  let engine = Cluster.engine cluster in
  let ops, elapsed, extra =
    Ctx.run_main cluster (fun ctx ->
        start_measurement ctx;
        let ops, extra = body ctx in
        Ctx.flush ctx;
        let started = Hashtbl.find (marks cluster) ctx.Ctx.thread_id in
        Hashtbl.remove (marks cluster) ctx.Ctx.thread_id;
        (ops, Engine.now engine -. started, extra))
  in
  let elapsed = Float.max elapsed 1e-12 in
  { ops; elapsed; throughput = ops /. elapsed; extra }

let spawn_workers ctx queues task =
  let queue_refs = Array.map ref queues in
  let cores = (Ctx.params ctx).Drust_machine.Params.cores_per_node in
  let worker node =
    Dthread.spawn_on ctx ~node (fun wctx ->
        let q = queue_refs.(node) in
        let rec drain () =
          match !q with
          | [] -> ()
          | task_id :: rest ->
              q := rest;
              task wctx task_id;
              drain ()
        in
        drain ())
  in
  List.concat_map
    (fun node -> List.init cores (fun _ -> worker node))
    (List.init (Array.length queues) Fun.id)

let blob_tag : unit Univ.tag = Univ.create_tag ~name:"appkit.blob"
let blob = Univ.pack blob_tag ()

let int_tag : int Univ.tag = Univ.create_tag ~name:"appkit.int"
let payload_of_int v = Univ.pack int_tag v
let int_of_payload u = Univ.unpack_exn int_tag u
