(** SocialNet: a twitter-like microservice application (DeathStarBench,
    §7.1).

    Twelve microservices with call dependencies, spread round-robin over
    the cluster; every request walks a chain of services.  The crucial
    design point from the paper: the {e original} deployment passes values
    between services — texts and media are serialized, shipped, and
    deserialized at every hop — while the DSM ports pass {e references}
    and let the DSM fetch the object once at the consumer.

    Request mix: compose_post (writes a post object, updates the author's
    user-timeline, fans out to follower home-timelines), read_home_timeline
    and read_user_timeline (fetch a timeline object and its recent posts).

    Setting [pass_by_value = true] models the original RPC deployment
    (usable for both Fig. 5b's "original distributed" baseline and the
    single-node original). *)

type config = {
  users : int;
  requests : int;
  clients_per_node : int;
  text_bytes : int;
  timeline_bytes : int;
  service_cycles : float;  (** per-hop application compute *)
  serialize_cycles_per_byte : float;
  pass_by_value : bool;  (** original RPC deployment (no DSM) *)
}

val default_config : config

val services : int
(** Number of microservices in the deployment (12, as in DeathStarBench). *)

val run :
  cluster:Drust_machine.Cluster.t -> backend:Drust_dsm.Dsm.t -> config ->
  Drust_appkit.Appkit.result
(** Throughput unit: requests per second. *)
