(* Distributed GEMM: blocked matrix multiply over the shared heap,
   comparing the three DSMs on the same cluster.  The story: high reuse of
   cached sub-matrices lets DRust (and GAM) scale; Grappa re-delegates
   every touch and falls behind.

   Run with:  dune exec examples/gemm_compute.exe

   Set DRUST_TRACE=1 (or =<prefix>) to trace the DRust run and export a
   Chrome trace_event JSON (load in ui.perfetto.dev) plus a JSONL
   metrics dump -- see docs/OBSERVABILITY.md. *)

module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Appkit = Drust_appkit.Appkit
module Gm = Drust_gemm.Gemm
module Simplan = Drust_plan.Simplan

let config =
  {
    Gm.default_config with
    Gm.grid = 8;
    block_bytes = Drust_util.Units.kib 64;
    strips = 64;
  }

let flops r =
  (* Each block-pair op is ~2 * b^3 flops with b = sqrt(block/8). *)
  let b = Float.sqrt (Float.of_int config.Gm.block_bytes /. 8.0) in
  r *. 2.0 *. (b ** 3.0)

let trace_prefix =
  match Sys.getenv_opt "DRUST_TRACE" with
  | Some p when p <> "" && p <> "0" ->
      Some (if p = "1" then "gemm-compute" else p)
  | _ -> None

let () =
  Printf.printf "GEMM: %dx%d blocks of %s, 4 nodes\n\n" config.Gm.grid
    config.Gm.grid
    (Format.asprintf "%a" Drust_util.Units.pp_bytes config.Gm.block_bytes);
  List.iter
    (fun system ->
      let cluster = Cluster.create { Params.default with Params.nodes = 4 } in
      (* Tracing is observational only: enabling it does not change the
         simulated numbers. *)
      if system = Simplan.Drust && trace_prefix <> None then
        Drust_obs.Span.enable (Cluster.spans cluster);
      let backend = Simplan.make_backend system cluster in
      let r = Gm.run ~cluster ~backend config in
      Printf.printf "%-8s %8.0f block-pair ops/s  (~%.2f simulated GFLOP/s)\n"
        (Simplan.system_name system) r.Appkit.throughput
        (flops r.Appkit.throughput /. 1e9);
      match (system, trace_prefix) with
      | Simplan.Drust, Some prefix ->
          let spans = Cluster.spans cluster in
          Drust_obs.Export.write_chrome_trace ~path:(prefix ^ ".trace.json")
            spans;
          Drust_obs.Export.write_metrics_jsonl ~time:(Cluster.now cluster)
            ~path:(prefix ^ ".metrics.jsonl")
            (Drust_obs.Metrics.snapshot (Cluster.metrics cluster));
          Printf.printf
            "         traced: %d events -> %s.trace.json, metrics -> \
             %s.metrics.jsonl\n"
            (Drust_obs.Span.count spans) prefix prefix
      | _ -> ())
    [ Simplan.Drust; Simplan.Gam; Simplan.Grappa ]
