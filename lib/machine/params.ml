type t = {
  nodes : int;
  cores_per_node : int;
  mem_per_node : int;
  ghz : float;
  net : Drust_net.Model.t;
  local_deref_cycles : float;
  runtime_check_cycles : float;
  cache_hit_cycles : float;
  flush_grain : float;
  seed : int;
}

let default =
  {
    nodes = 8;
    cores_per_node = 16;
    mem_per_node = Drust_util.Units.gib 128;
    ghz = 2.6;
    net = Drust_net.Model.infiniband_40g;
    local_deref_cycles = 364.0;
    runtime_check_cycles = 31.0;
    cache_hit_cycles = 120.0;
    flush_grain = 2e-6;
    seed = 42;
  }

let fixed_resource t ~total_cores ~total_mem ~nodes =
  if nodes <= 0 then invalid_arg "Params.fixed_resource: need at least one node";
  if total_cores mod nodes <> 0 then
    invalid_arg "Params.fixed_resource: cores must divide evenly";
  {
    t with
    nodes;
    cores_per_node = total_cores / nodes;
    mem_per_node = total_mem / nodes;
  }

let[@inline] cycles_to_seconds t cycles = cycles /. (t.ghz *. 1e9)
