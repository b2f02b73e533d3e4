type t = {
  oneside_base : float;
  twoside_base : float;
  atomic_base : float;
  bandwidth : float;
  local_base : float;
  jitter : float;
}

(* 40 Gbps of payload bandwidth is ~5 GB/s; the 3.5 us one-sided base plus
   512 B / 5 GB/s ~ 0.1 us reproduces the paper's 3.6 us remote object
   read (S3). *)
let infiniband_40g =
  {
    oneside_base = 3.5e-6;
    twoside_base = 4.5e-6;
    atomic_base = 2.2e-6;
    bandwidth = 5.0e9;
    local_base = 0.15e-6;
    jitter = 0.03;
  }

let oneside_time t ~bytes = t.oneside_base +. (Float.of_int bytes /. t.bandwidth)
