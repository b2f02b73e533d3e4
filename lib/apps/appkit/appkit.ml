module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Engine = Drust_sim.Engine
module Univ = Drust_util.Univ

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
  let outcome = ref None in
  ignore
    (Engine.spawn engine (fun () ->
         let ctx = Ctx.make cluster ~node:0 in
         let t0 = Engine.now engine in
         Hashtbl.replace (marks cluster) ctx.Ctx.thread_id t0;
         let ops, extra = body ctx in
         Ctx.flush ctx;
         let started = Hashtbl.find (marks cluster) ctx.Ctx.thread_id in
         Hashtbl.remove (marks cluster) ctx.Ctx.thread_id;
         let elapsed = Engine.now engine -. started in
         outcome := Some (ops, elapsed, extra)));
  Cluster.run cluster;
  match !outcome with
  | None -> failwith "Appkit.run_main: main thread did not finish"
  | Some (ops, elapsed, extra) ->
      let elapsed = Float.max elapsed 1e-12 in
      { ops; elapsed; throughput = ops /. elapsed; extra }

let blob_tag : unit Univ.tag = Univ.create_tag ~name:"appkit.blob"
let blob = Univ.pack blob_tag ()

let int_tag : int Univ.tag = Univ.create_tag ~name:"appkit.int"
let payload_of_int v = Univ.pack int_tag v
let int_of_payload u = Univ.unpack_exn int_tag u
