(** Exporters: Chrome [trace_event] JSON and a JSONL metrics dump.

    [write_chrome_trace] writes a {!Span.t}'s events in the Chrome trace-event
    format (JSON object form), loadable in [chrome://tracing] and
    Perfetto ({:https://ui.perfetto.dev}): one process ([drust-sim]),
    one timeline row (tid) per track — i.e. per node — complete spans
    as ["X"] events and instants as ["i"] events, timestamps in
    microseconds of virtual time, sorted ascending.  Every flow-edge id with both a producer
    ([Span.flow_out]) and a consumer ([Span.flow_in]) additionally emits
    a Chrome flow pair — ["s"] on the producer's track, ["f"] with
    [bp:"e"] on the consumer's — so cross-node messages render as
    arrows between node timelines.

    [write_metrics_jsonl] writes a {!Metrics.snapshot} as one JSON object per
    line, friendly to [jq] and dataframe loaders.  The dump is
    write-only: nothing in the repo reads it back. *)

val write_chrome_trace : path:string -> Span.t -> unit
(** The whole trace as one JSON document. *)

val write_metrics_jsonl : ?time:float -> path:string -> Metrics.snapshot -> unit
(** One line per sample:
    [{"name":...,"labels":{...},"unit":...,"type":...,"value":...}];
    histograms carry count/sum/min/max/buckets.  [time] (virtual
    seconds) is stamped on every line when given. *)
