module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Fabric = Drust_net.Fabric
module Dsm = Drust_dsm.Dsm
module Dthread = Drust_runtime.Dthread
module Appkit = Drust_appkit.Appkit
module Social_graph = Drust_workloads.Social_graph

type config = {
  users : int;
  requests : int;
  clients_per_node : int;
  text_bytes : int;
  timeline_bytes : int;
  service_cycles : float;
  serialize_cycles_per_byte : float;
  pass_by_value : bool;
}

let default_config =
  {
    users = 2_000;
    requests = 4_000;
    clients_per_node = 8;
    text_bytes = 1024;
    timeline_bytes = 2048;
    service_cycles = 3_000.0;
    serialize_cycles_per_byte = 4.0;
    pass_by_value = false;
  }

(* Request mix: compose_post, read_home_timeline, and the remainder
   read_user_timeline. *)
let compose_ratio = 0.10
let read_home_ratio = 0.60

(* A compose attaches a media object with probability [media_prob]. *)
let media_bytes = Drust_util.Units.kib 64
let media_prob = 0.10

(* Posts fetched per timeline read. *)
let recent_posts = 5

(* Home-timeline fanout limit per compose. *)
let fanout_cap = 16

(* The 12 DeathStarBench services.  Under DSM every service is replicated
   on every node and a request's hops stay local — only references cross
   the wire, through the shared heap.  The original deployment shards the
   four stateful services by key; calls to them carry serialized values
   over the network. *)
let service_names =
  [|
    "nginx"; "compose-post"; "text"; "unique-id"; "media"; "user";
    "url-shorten"; "user-mention"; "post-storage"; "user-timeline";
    "home-timeline"; "social-graph";
  |]

let services = Array.length service_names

type deployment = {
  cfg : config;
  backend : Dsm.t;
  cluster : Cluster.t;
  nodes : int;
  graph : Social_graph.t;
  timelines : Dsm.handle array; (* per user: home timeline object *)
  user_timelines : Dsm.handle array;
  recent : Dsm.handle array; (* ring of recently composed posts *)
  recent_author : int array;
  mutable ring_cursor : int;
  mutable hop_seq : int; (* spreads DSM-mode hops over service replicas *)
}

(* One service hop.  [shard] keys the stateful services of the original
   deployment; [payload_bytes] is what the original must serialize and
   ship (the DSM deployments pass an 80-byte reference instead). *)
let hop d ctx ~shard ~payload_bytes =
  let cfg = d.cfg in
  (* Application work in the service itself. *)
  Ctx.charge_cycles ctx cfg.service_cycles;
  if cfg.pass_by_value then begin
    let target = shard mod d.nodes in
    Ctx.charge_cycles ctx
      (cfg.serialize_cycles_per_byte *. Float.of_int payload_bytes);
    if target <> ctx.Ctx.node then begin
      Ctx.flush ctx;
      Fabric.rpc (Ctx.fabric ctx) ~from:ctx.Ctx.node ~target
        ~req_bytes:(payload_bytes + 64) ~resp_bytes:64 (fun () -> ());
      ctx.Ctx.node <- target
    end
    else Ctx.charge_cycles ctx 2_000.0;
    Ctx.charge_cycles ctx
      (cfg.serialize_cycles_per_byte *. Float.of_int payload_bytes)
  end
  else begin
    (* DSM deployment: services follow the original orchestration and are
       spread over the cluster, but RPCs carry only references.  Replica
       choice is load-balanced, not data-aware — data affinity is the
       DSM's job. *)
    d.hop_seq <- d.hop_seq + 1;
    let target = (shard + (d.hop_seq * 3)) mod d.nodes in
    if target <> ctx.Ctx.node then begin
      Ctx.flush ctx;
      Fabric.rpc (Ctx.fabric ctx) ~from:ctx.Ctx.node ~target ~req_bytes:80
        ~resp_bytes:64 (fun () -> ());
      ctx.Ctx.node <- target
    end
    else Ctx.charge_cycles ctx 2_000.0
  end

(* Every deployment serializes the final HTTP response to the end
   client — DSM saves the inter-service copies, not this one. *)
let respond d ctx ~bytes =
  Ctx.charge_cycles ctx
    (d.cfg.serialize_cycles_per_byte *. Float.of_int bytes)

let compose_post d ctx ~author ~with_media =
  let cfg = d.cfg in
  let post_bytes = cfg.text_bytes + if with_media then media_bytes else 0 in
  (* nginx -> compose -> text -> unique-id [-> media] -> post-storage *)
  hop d ctx ~shard:author ~payload_bytes:cfg.text_bytes;
  hop d ctx ~shard:author ~payload_bytes:cfg.text_bytes;
  hop d ctx ~shard:author ~payload_bytes:cfg.text_bytes;
  hop d ctx ~shard:author ~payload_bytes:16;
  if with_media then hop d ctx ~shard:author ~payload_bytes:media_bytes;
  hop d ctx ~shard:author ~payload_bytes:post_bytes;
  let post = d.backend.Dsm.alloc ctx ~size:post_bytes (Appkit.payload_of_int author) in
  let slot = d.ring_cursor mod Array.length d.recent in
  d.recent.(slot) <- post;
  d.recent_author.(slot) <- author;
  d.ring_cursor <- d.ring_cursor + 1;
  (* Append to the author's user timeline. *)
  hop d ctx ~shard:author ~payload_bytes:256;
  d.backend.Dsm.update ctx d.user_timelines.(author) (fun v -> v);
  (* Fan out to follower home timelines. *)
  hop d ctx ~shard:author ~payload_bytes:64;
  let followers = Social_graph.followers d.graph author in
  let fanout = min fanout_cap (List.length followers) in
  List.iteri
    (fun i f ->
      if i < fanout then begin
        hop d ctx ~shard:f ~payload_bytes:256;
        d.backend.Dsm.update ctx d.timelines.(f) (fun v -> v)
      end)
    followers;
  respond d ctx ~bytes:256

let read_timeline d ctx ~user ~home =
  let cfg = d.cfg in
  hop d ctx ~shard:user ~payload_bytes:64;
  (* timeline service *)
  hop d ctx ~shard:user ~payload_bytes:cfg.timeline_bytes;
  let tl = if home then d.timelines.(user) else d.user_timelines.(user) in
  ignore (d.backend.Dsm.read ctx tl);
  (* Fetch the recent posts the timeline references. *)
  if d.ring_cursor > 0 then begin
    let ring = Array.length d.recent in
    for p = 1 to recent_posts do
      let idx = (d.ring_cursor - p + (ring * 2)) mod ring in
      hop d ctx ~shard:d.recent_author.(idx)
        ~payload_bytes:(cfg.text_bytes + 256);
      ignore (d.backend.Dsm.read ctx d.recent.(idx))
    done
  end;
  respond d ctx
    ~bytes:
      (cfg.timeline_bytes
      + (recent_posts * (cfg.text_bytes + 256))
      + Float.to_int (Float.of_int media_bytes *. media_prob))

let run ~cluster ~backend cfg =
  if cfg.requests <= 0 then invalid_arg "Socialnet.run: empty workload";
  Appkit.run_main cluster (fun ctx ->
      let nodes = Cluster.node_count cluster in
      let graph =
        Social_graph.create ~users:cfg.users ~seed:7 ~max_fanout:fanout_cap ()
      in
      let timelines =
        Array.init cfg.users (fun u ->
            backend.Dsm.alloc_on ctx ~node:(u mod nodes) ~size:cfg.timeline_bytes
              (Appkit.payload_of_int u))
      in
      let user_timelines =
        Array.init cfg.users (fun u ->
            backend.Dsm.alloc_on ctx ~node:(u mod nodes) ~size:cfg.timeline_bytes
              (Appkit.payload_of_int u))
      in
      (* Seed the post ring so early reads have something to fetch. *)
      let ring = 256 in
      let d =
        {
          cfg;
          backend;
          cluster;
          nodes;
          graph;
          timelines;
          user_timelines;
          recent =
            Array.init ring (fun i ->
                backend.Dsm.alloc_on ctx ~node:(i mod nodes)
                  ~size:cfg.text_bytes (Appkit.payload_of_int i));
          recent_author = Array.init ring (fun i -> i mod cfg.users);
          ring_cursor = ring;
          hop_seq = 0;
        }
      in
      Appkit.start_measurement ctx;
      let latencies = Drust_util.Stats.create () in
      let n_clients = nodes * cfg.clients_per_node in
      let per_client = max 1 (cfg.requests / n_clients) in
      let composed = ref 0 in
      let client c =
        Dthread.spawn_on ctx ~node:(c mod nodes) (fun cctx ->
            let rng = Drust_util.Rng.create ~seed:(500 + c) in
            let engine = Ctx.engine cctx in
            for _ = 1 to per_client do
              let entry_node = cctx.Ctx.node in
              let req_start = Drust_sim.Engine.now engine in
              let r = Drust_util.Rng.float rng 1.0 in
              (if r < compose_ratio then begin
                 incr composed;
                 let author = Social_graph.sample_author d.graph rng in
                 let with_media = Drust_util.Rng.bernoulli rng ~p:media_prob in
                 compose_post d cctx ~author ~with_media
               end
               else
                 let user = Social_graph.sample_reader d.graph rng in
                 read_timeline d cctx ~user
                   ~home:(r < compose_ratio +. read_home_ratio));
              (* The response returns to the client's entry point. *)
              cctx.Ctx.node <- entry_node;
              Ctx.flush cctx;
              Drust_util.Stats.add latencies
                (Drust_sim.Engine.now engine -. req_start)
            done)
      in
      let clients = List.init n_clients client in
      Dthread.join_all ctx clients;
      let total = Float.of_int (per_client * n_clients) in
      ( total,
        [
          ("composed", Float.of_int !composed);
          ("lat_p50_us", Drust_util.Stats.median latencies *. 1e6);
          ("lat_p99_us", Drust_util.Stats.percentile latencies 99.0 *. 1e6);
        ] ))
