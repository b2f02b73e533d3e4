module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Dsm = Drust_dsm.Dsm
module Dthread = Drust_runtime.Dthread
module Appkit = Drust_appkit.Appkit

type query_kind = Filter | Groupby | Join

type config = {
  partitions : int;
  chunk_bytes : int;
  index_entries : int;
  intensity : float;
  queries : int;
  use_tbox : bool;
  use_spawn_to : bool;
}

let entry_bytes = 64

(* Cycled: each dependent query runs the next kind in the list. *)
let query_mix = [ Filter; Join; Groupby; Join ]

(* Source partitions shuffled into one groupby output. *)
let groupby_fanin = 4

let default_config =
  {
    partitions = 128;
    chunk_bytes = Drust_util.Units.kib 256;
    index_entries = 512;
    intensity = 40.0;
    queries = 4;
    use_tbox = false;
    use_spawn_to = false;
  }

(* One query: build the shared index concurrently with chunk processing,
   then hand the output chunks to the next query. *)
let run_query ~cluster ~(backend : Dsm.t) cfg ctx ~query ~inputs_tied ~input_chunks =
  let nodes = Cluster.node_count cluster in
  (* The shared index table lives on the coordinator: a tightly packed
     array of small entries. *)
  let index =
    Array.init cfg.index_entries (fun i ->
        backend.Dsm.alloc_on ctx ~node:0 ~size:entry_bytes
          (Appkit.payload_of_int (-1 - i)))
  in
  (* Builders: one thread per node, writing interleaved entries. *)
  let builders =
    List.init nodes (fun b ->
        Dthread.spawn_on ctx ~node:b (fun bctx ->
            let i = ref b in
            while !i < cfg.index_entries do
              (* Compose the entry (source-chunk id array) and publish it. *)
              Ctx.charge_cycles bctx 900.0;
              backend.Dsm.write bctx index.(!i) (Appkit.payload_of_int !i);
              i := !i + nodes
            done))
  in
  (* Chunk tasks, executed by one worker thread per core on each node
     (the paper's even thread distribution).  A task that stalls on the
     network leaves its core idle. *)
  let output = Array.make cfg.partitions None in
  let check_cycles =
    (Cluster.params cluster).Drust_machine.Params.runtime_check_cycles
  in
  let do_task wctx i =
      (* Look up this destination's index entry... *)
      let lookup = i mod cfg.index_entries in
      let rec wait_entry tries =
        let v = backend.Dsm.read wctx index.(lookup) in
        if Appkit.int_of_payload v < 0 && tries < 10_000 then begin
          (* Builder has not published it yet: poll (bounded). *)
          Drust_sim.Engine.delay (Ctx.engine wctx) 2e-6;
          wait_entry (tries + 1)
        end
      in
      wait_entry 0;
      (* ...then stream the query's source chunks record by record,
         interleaving the columnar compute.  The source set depends on the
         operator: a filter scans only its own partition; a join reads the
         partition and its shuffle partner; a groupby gathers [fanin]
         partitions from across the table (the all-to-all exchange). *)
      let kind = List.nth query_mix ((query - 1) mod List.length query_mix) in
      let sources =
        match kind with
        | Filter -> [ input_chunks.(i) ]
        | Join -> [ input_chunks.(i); input_chunks.(i lxor 1) ]
        | Groupby ->
            List.init groupby_fanin (fun k ->
                input_chunks.((i + (k * cfg.partitions / groupby_fanin))
                              mod cfg.partitions))
      in
      let record_bytes = 512 in
      let records = cfg.chunk_bytes / record_bytes in
      let n_sources = List.length sources in
      let cycles_per_record =
        cfg.intensity *. Float.of_int (n_sources * cfg.chunk_bytes)
        /. Float.of_int records
      in
      (* Column scans dereference every element.  When the affinity
         annotations guarantee the sources are local (spawn_to placed us
         at the tied pair's home), DRust skips the per-dereference
         runtime check (S4.1.3); otherwise each element pays it. *)
      let guaranteed_local =
        cfg.use_tbox && cfg.use_spawn_to && backend.Dsm.supports_affinity
        && List.for_all (fun h -> backend.Dsm.home h = wctx.Ctx.node) sources
      in
      let element_checks =
        if guaranteed_local then 0.0
        else check_cycles *. Float.of_int (n_sources * record_bytes / 8)
      in
      for _ = 1 to records do
        List.iter
          (fun src -> backend.Dsm.read_part wctx src ~bytes:record_bytes)
          sources;
        Ctx.compute wctx ~cycles:(cycles_per_record +. element_checks)
      done;
      (* ...and materialize the output chunk locally. *)
      let out =
        backend.Dsm.alloc wctx ~size:cfg.chunk_bytes (Appkit.payload_of_int i)
      in
      output.(i) <- Some out
  in
  (* Assign tasks to nodes: spawn_to sends each task to its input
     partition's server; the unannotated runtime balances load without
     knowing where the data lives (a scattered assignment). *)
  let queues = Array.make nodes [] in
  for i = cfg.partitions - 1 downto 0 do
    let node =
      if cfg.use_spawn_to && backend.Dsm.supports_affinity then
        backend.Dsm.home input_chunks.(i)
      else ((i * 7) + (3 * query)) mod nodes
    in
    queues.(node) <- i :: queues.(node)
  done;
  let queue_refs = Array.map ref queues in
  let cores = (Cluster.params cluster).Drust_machine.Params.cores_per_node in
  let worker node =
    Dthread.spawn_on ctx ~node (fun wctx ->
        let q = queue_refs.(node) in
        let rec drain () =
          match !q with
          | [] -> ()
          | i :: rest ->
              q := rest;
              do_task wctx i;
              drain ()
        in
        drain ())
  in
  let workers =
    List.concat_map
      (fun node -> List.init cores (fun _ -> worker node))
      (List.init nodes Fun.id)
  in
  Dthread.join_all ctx builders;
  Dthread.join_all ctx workers;
  (* Free the consumed inputs and the per-query index.  Tied children are
     owned by their parents, whose drop frees them recursively. *)
  let tied_child i = inputs_tied && i mod 2 = 1 in
  Array.iteri
    (fun i h -> if not (tied_child i) then backend.Dsm.free ctx h)
    input_chunks;
  Array.iter (fun h -> backend.Dsm.free ctx h) index;
  let out =
    Array.map
      (function Some h -> h | None -> failwith "Dataframe: missing output chunk")
      output
  in
  (* Keep the annotations alive across dependent queries: tie each fresh
     output pair so the next query inherits the co-location.  Without
     spawn_to the producers of a pair sit on different servers and the tie
     would have to ship a chunk — the annotation is only applied where the
     paper applies it, together with computation placement. *)
  let tie_outputs =
    cfg.use_tbox && cfg.use_spawn_to && backend.Dsm.supports_affinity
  in
  if tie_outputs then
    Array.iteri
      (fun i h -> if i mod 2 = 1 then backend.Dsm.tie ctx ~parent:out.(i - 1) ~child:h)
      out;
  (out, tie_outputs)

let allocate_table ~(backend : Dsm.t) cfg ctx ~nodes =
  (* Chunk i's shuffle partner is (i lxor 1); place the two halves of a
     pair on different servers so cross-partition reads really cross the
     wire — unless TBox ties them back together. *)
  let home i =
    if i mod 2 = 0 then i / 2 mod nodes
    else ((i / 2) + max 1 (nodes / 2)) mod nodes
  in
  let chunks =
    Array.init cfg.partitions (fun i ->
        backend.Dsm.alloc_on ctx ~node:(home i) ~size:cfg.chunk_bytes
          (Appkit.payload_of_int i))
  in
  (* TBox annotation: tie each chunk to its shuffle partner so the pair
     co-locates (joins/groupbys touch both) and local dereferences skip
     the runtime check. *)
  if cfg.use_tbox && backend.Dsm.supports_affinity then
    Array.iteri
      (fun i h ->
        if i mod 2 = 1 then backend.Dsm.tie ctx ~parent:chunks.(i - 1) ~child:h)
      chunks;
  chunks

let run ~cluster ~backend cfg =
  if cfg.partitions <= 0 || cfg.queries <= 0 then
    invalid_arg "Dataframe.run: empty workload";
  Appkit.run_main cluster (fun ctx ->
      let nodes = Cluster.node_count cluster in
      let table = allocate_table ~backend cfg ctx ~nodes in
      Appkit.start_measurement ctx;
      let chunks = ref table in
      let tied = ref (cfg.use_tbox && backend.Dsm.supports_affinity) in
      for q = 1 to cfg.queries do
        let out, out_tied =
          run_query ~cluster ~backend cfg ctx ~query:q ~inputs_tied:!tied
            ~input_chunks:!chunks
        in
        chunks := out;
        tied := out_tied
      done;
      Array.iteri
        (fun i h -> if not (!tied && i mod 2 = 1) then backend.Dsm.free ctx h)
        !chunks;
      (Float.of_int cfg.queries, []))
