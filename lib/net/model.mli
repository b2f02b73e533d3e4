(** Network latency/bandwidth model.

    Calibrated against the measurements the paper itself reports for its
    testbed (40 Gbps Mellanox ConnectX-3 InfiniBand, §3 and §7): reading a
    512-byte object over the wire with a one-sided READ verb costs 3.6 µs,
    while a full GAM uncached read costs 16 µs (77 % coherence overhead).
    All verbs are point-to-point (the DRust protocol needs no broadcasts);
    the switch is modelled as full bisection bandwidth, which matches the
    100 Gbps switch feeding 40 Gbps NICs in the paper's cluster. *)

type t = {
  oneside_base : float;
      (** Base latency of a one-sided READ/WRITE verb (s), excluding
          payload serialization on the wire. *)
  twoside_base : float;
      (** Base latency of a two-sided SEND+RECV pair: includes the
          receiver-side CPU wakeup that one-sided verbs avoid. *)
  atomic_base : float;
      (** Latency of a remote ATOMIC_FETCH_AND_ADD / ATOMIC_CMP_AND_SWP. *)
  bandwidth : float;  (** NIC payload bandwidth in bytes/second. *)
  local_base : float;
      (** Cost of a verb whose source and target are the same node
          (loopback through the software stack, no wire). *)
  jitter : float;
      (** Relative standard deviation applied multiplicatively to each
          latency sample; 0 disables jitter. *)
}

val infiniband_40g : t
(** The paper's testbed NIC. *)

val oneside_time : t -> bytes:int -> float
(** Latency of a one-sided verb carrying [bytes] of payload: the base
    plus its serialization time at NIC bandwidth. *)
