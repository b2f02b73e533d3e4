let str s = "\"" ^ Drust_util.Json.escape s ^ "\""

(* JSON numbers: finite floats only; trace timestamps use plain decimal
   notation (Perfetto rejects exponents in some paths), metrics use %g. *)
let num v = if Float.is_finite v then Printf.sprintf "%g" v else str (Float.to_string v)

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let args_obj args =
  obj (List.map (fun (k, v) -> (k, str v)) args)

let us t = Printf.sprintf "%.3f" (t *. 1e6)

let chrome_trace spans =
  let events = Span.events spans in
  let tracks =
    List.sort_uniq Int.compare (List.map (fun e -> e.Span.track) events)
  in
  let meta =
    obj
      [ ("ph", str "M"); ("pid", "0"); ("tid", "0");
        ("name", str "process_name"); ("args", obj [ ("name", str "drust-sim") ]) ]
    :: List.concat_map
         (fun track ->
           [ obj
               [ ("ph", str "M"); ("pid", "0");
                 ("tid", string_of_int track); ("name", str "thread_name");
                 ("args", obj [ ("name", str (Printf.sprintf "node %d" track)) ]) ];
             (* Perfetto sorts rows by thread_sort_index when present;
                without it node 10 sorts before node 2. *)
             obj
               [ ("ph", str "M"); ("pid", "0");
                 ("tid", string_of_int track);
                 ("name", str "thread_sort_index");
                 ("args", obj [ ("sort_index", string_of_int track) ]) ] ])
         tracks
  in
  let sorted =
    List.stable_sort (fun a b -> Float.compare a.Span.ts b.Span.ts) events
  in
  let body =
    List.map
      (fun e ->
        let common =
          [ ("pid", "0"); ("tid", string_of_int e.Span.track);
            ("ts", us e.Span.ts); ("name", str e.Span.name);
            ("cat", str e.Span.category); ("args", args_obj e.Span.args) ]
        in
        match e.Span.kind with
        | Span.Complete ->
            obj (("ph", str "X") :: ("dur", us e.Span.dur) :: common)
        | Span.Instant ->
            obj (("ph", str "i") :: ("s", str "t") :: common))
      sorted
  in
  (* Flow arrows: one ["s"]/["f"] pair per flow-edge id that has both a
     producer (the id appears in some event's [flow_out]) and a consumer
     ([flow_in]).  The ["f"] end binds to its enclosing slice
     ([bp:"e"]), which is how Perfetto draws an arrow from the verb span
     on the source node into the serving span on the target node. *)
  let producers = Hashtbl.create 64 and consumers = Hashtbl.create 64 in
  List.iter
    (fun e ->
      List.iter
        (fun fid ->
          if not (Hashtbl.mem producers fid) then Hashtbl.add producers fid e)
        e.Span.flow_out;
      List.iter
        (fun fid ->
          if not (Hashtbl.mem consumers fid) then Hashtbl.add consumers fid e)
        e.Span.flow_in)
    sorted;
  let flow_ids =
    Drust_util.Tables.sorted_keys producers ~cmp:Int.compare
    |> List.filter (Hashtbl.mem consumers)
  in
  let flows =
    List.concat_map
      (fun fid ->
        let p = Hashtbl.find producers fid
        and c = Hashtbl.find consumers fid in
        let mk ph extra e =
          obj
            ([ ("ph", str ph); ("id", string_of_int fid);
               ("pid", "0"); ("tid", string_of_int e.Span.track);
               ("ts", us e.Span.ts); ("name", str "msg");
               ("cat", str "flow") ]
            @ extra)
        in
        [ mk "s" [] p; mk "f" [ ("bp", str "e") ] c ])
      flow_ids
  in
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
  ^ String.concat ",\n" (meta @ body @ flows)
  ^ "\n]}\n"

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write_chrome_trace ~path spans = write_file path (chrome_trace spans)

let sample_line ?time (s : Metrics.sample) =
  let labels =
    obj (List.map (fun (k, v) -> (k, str v)) s.Metrics.s_labels)
  in
  let base =
    (match time with Some t -> [ ("time", num t) ] | None -> [])
    @ [ ("name", str s.Metrics.s_name); ("labels", labels) ]
    @ (if s.Metrics.s_unit = "" then [] else [ ("unit", str s.Metrics.s_unit) ])
  in
  match s.Metrics.s_value with
  | Metrics.Count n ->
      obj (base @ [ ("type", str "counter"); ("value", string_of_int n) ])
  | Metrics.Level v -> obj (base @ [ ("type", str "gauge"); ("value", num v) ])
  | Metrics.Histo h ->
      let buckets =
        "["
        ^ String.concat ","
            (List.map
               (fun (le, c) ->
                 obj [ ("le", num le); ("count", string_of_int c) ])
               h.Metrics.h_buckets)
        ^ "]"
      in
      obj
        (base
        @ [ ("type", str "histogram");
            ("count", string_of_int h.Metrics.h_count);
            ("sum", num h.Metrics.h_sum); ("min", num h.Metrics.h_min);
            ("max", num h.Metrics.h_max); ("buckets", buckets) ])

let metrics_jsonl ?time snap =
  String.concat "" (List.map (fun s -> sample_line ?time s ^ "\n") snap)

let write_metrics_jsonl ?time ~path snap =
  write_file path (metrics_jsonl ?time snap)
