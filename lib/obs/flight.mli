(** Flight recorder: an always-on, bounded, per-node black box.

    Every cluster owns one {!t} (see [Cluster.flight]).  The protocol,
    the fabric, the membership/replication layers, the fault plan, and
    the DSan sanitizer record compact structured events into per-node
    ring buffers through {!record} — preallocated unboxed arrays, no
    per-event allocation, so the always-on cost on the untraced hot
    path stays negligible and recording never perturbs the simulation
    (no engine, RNG, or heap access: instrumented runs stay
    bit-identical).

    On a failure — a DSan violation, an uncaught workload exception, or
    a fuzz finding — the ring contents are written as a versioned
    [*.flight.json] dump ([drust-flight/v1], shared [lib/util/json]
    codec): the last N events per node, merged in true record order,
    plus a causal slice for the offending object.  [bench/main.exe
    forensics] and [bin/drust_sim.exe --explain] reconstruct per-object
    ownership/cache/epoch timelines from a dump alone (no re-run); the
    rendering lives here ({!explain_object}, {!render_last}) so both
    CLIs and the live-ring path share it.

    Schema and field table: docs/FORENSICS.md (cross-checked against
    {!field_names} by [tools/check_docs.ml], check 9). *)

(** {1 Event kinds}

    Dense int codes.  Codes [0..8] ({!k_read_local} .. {!k_drop}) are
    the protocol's op-outcome codes: the protocol records them
    untranslated and labels its [protocol.op_latency] histograms with
    their {!kind_names}. *)

val k_read_local : int
val k_read_cached : int
val k_read_fetch : int
val k_read_remote : int
val k_write_inplace : int
val k_write_bump : int
val k_write_move : int
val k_transfer : int
val k_drop : int
val k_create : int
val k_fab_read : int
val k_fab_write : int
val k_fab_atomic : int
val k_fab_rpc : int
val k_fab_send : int
val k_fab_timeout : int
val k_fab_retry : int
val k_fab_drop : int
val k_fab_stale_epoch : int
val k_view_change : int
val k_handoff_prepare : int
val k_handoff_commit : int
val k_handoff_abort : int
val k_chain_reseed : int
val k_node_failed : int
val k_promoted : int
val k_fault_crash : int
val k_fault_partition : int
val k_fault_degrade : int
val k_dsan_violation : int

val kind_names : string array
(** Stable display names, indexed by kind code. *)

(** {1 Recording} *)

type t

val create : ?cap:int -> ?metrics:Metrics.t -> nodes:int -> unit -> t
(** A recorder with [nodes] rings of [cap] (default 256) slots each,
    allocated once up front.  When [metrics] is given, registers the
    [flight.events] / [flight.dumps] counters there. *)

val record :
  t -> node:int -> time:float -> kind:int -> a:int -> b:int -> c:int -> d:int
  -> unit
(** Append one event to [node]'s ring (overwriting the oldest once
    full).  Array stores only — no allocation beyond the caller's
    float argument.  Out-of-range nodes and disabled recorders drop
    the event.  [a..d] are kind-specific payload fields; for object
    events [a] is the physical (color-cleared) address as an int.
    Field semantics per kind: docs/FORENSICS.md. *)

val set_enabled : t -> bool -> unit

val set_label : t -> string -> unit
(** The dump label (and auto-dump file stem) — the SimPlan name of the
    run, set by [Simplan.execute]. *)

(** {1 Events and dumps} *)

type event = {
  ev_time : float;  (** virtual time *)
  ev_node : int;
  ev_kind : int;
  ev_a : int;
  ev_b : int;
  ev_c : int;
  ev_d : int;
}

type dump = {
  dm_label : string;
  dm_reason : string;
  dm_nodes : int;
  dm_ring : int;
  dm_time : float;  (** virtual time the dump was taken *)
  dm_object : int option;  (** offending physical address, if any *)
  dm_events : event list;  (** retained events, true record order *)
  dm_slice : event list;  (** causal slice for [dm_object] *)
}

val events : t -> event list
(** Retained ring contents, all nodes merged in true record order. *)

val recent : t -> n:int -> kinds:(int -> bool) -> event list
(** The [n] most recent retained events whose kind satisfies [kinds],
    across all nodes, oldest first.  Sorts at most [n] candidates per
    node rather than the whole ring — the DSan sanitizer reads its
    fabric provenance this way on every violation. *)

val schema : string
(** ["drust-flight/v1"]. *)

val field_names : string list
(** Every field name of the dump JSON encoding, top-level and
    per-event, sorted and derived from the codec's declaration — the
    docs/FORENSICS.md table is checked against this. *)

val load : path:string -> (dump, string) result
(** Strict, as docs/FORENSICS.md lists: [Error "<file>: <path>:
    <problem>"] on any malformed dump, never an exception. *)

(** {1 Automatic dumps} *)

val set_dump_dir : string option -> unit
(** Directory auto-dumps are written into (default: cwd). *)

val auto_dump : t -> reason:string -> ?object_:int -> now:float -> unit -> bool
(** Write the dump file, [<dump_dir>/<label>.flight.json], if this
    recorder has not dumped yet (first failure wins: later violations
    would overwrite the ring tail that explains the first).  Returns
    whether a file was written; [object_] names the offending physical
    address, whose causal slice the dump carries. *)

val guard : t -> now:(unit -> float) -> (unit -> 'a) -> 'a
(** Run a workload; on any exception, {!auto_dump} with the exception
    as reason, then re-raise.  [Simplan.execute] wraps every workload
    in this, which is what turns uncaught experiment exceptions and
    expectation failures into dumps. *)

(** {1 Timelines (the forensics renderers)} *)

val pp_event : Format.formatter -> event -> unit

val explain_object : ?object_:int -> event list -> string list
(** The per-object timeline: one line per causal-slice event —
    creation, every move/fetch/invalidation, ownership transfers,
    promotions of its home range, the drop, and any DSan violation —
    plus derived cache-staleness notes ("copies cached under color c
    on nodes [...] went stale here").  Works on dump events or live
    ring events alike. *)

val render_last : event list -> node:int -> string list
(** The per-node black-box view: the last 50 events of [node] before
    the dump, oldest first. *)
