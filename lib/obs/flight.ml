module Json = Drust_util.Json

(* ------------------------------------------------------------------ *)
(* Event kinds.  Codes 0..8 are the protocol's op-outcome codes: the
   protocol layer computes them, records them with no translation, and
   labels its latency histograms with their names. *)

let k_read_local = 0
let k_read_cached = 1
let k_read_fetch = 2
let k_read_remote = 3
let k_write_inplace = 4
let k_write_bump = 5
let k_write_move = 6
let k_transfer = 7
let k_drop = 8
let k_create = 9
let k_fab_read = 10
let k_fab_write = 11
let k_fab_atomic = 12
let k_fab_rpc = 13
let k_fab_send = 14
let k_fab_timeout = 15
let k_fab_retry = 16
let k_fab_drop = 17
let k_fab_stale_epoch = 18
let k_view_change = 19
let k_handoff_prepare = 20
let k_handoff_commit = 21
let k_handoff_abort = 22
let k_chain_reseed = 23
let k_node_failed = 24
let k_promoted = 25
let k_fault_crash = 26
let k_fault_partition = 27
let k_fault_degrade = 28
let k_dsan_violation = 29

let kind_names =
  [|
    "read_local";
    "read_cached";
    "read_fetch";
    "read_remote";
    "write_inplace";
    "write_bump";
    "write_move";
    "transfer";
    "drop";
    "create";
    "fab_read";
    "fab_write";
    "fab_atomic";
    "fab_rpc";
    "fab_send";
    "fab_timeout";
    "fab_retry";
    "fab_drop";
    "fab_stale_epoch";
    "view_change";
    "handoff_prepare";
    "handoff_commit";
    "handoff_abort";
    "chain_reseed";
    "node_failed";
    "promoted";
    "fault_crash";
    "fault_partition";
    "fault_degrade";
    "dsan_violation";
  |]

let kind_name k =
  if k >= 0 && k < Array.length kind_names then kind_names.(k)
  else Printf.sprintf "kind_%d" k

(* ------------------------------------------------------------------ *)
(* The recorder: per-node rings laid out as flat parallel arrays, one
   allocation each at create time.  [times] is a float array (unboxed
   storage), everything else untagged ints; a record is seven array
   stores plus two counter bumps. *)

type t = {
  nodes : int;
  cap : int;
  times : float array;  (* nodes * cap, ring-indexed *)
  kinds : int array;
  fa : int array;
  fb : int array;
  fc : int array;
  fd : int array;
  seqs : int array;  (* global record order, for the cross-node merge *)
  counts : int array;  (* per-node events ever recorded *)
  mutable seq : int;
  mutable enabled : bool;
  mutable label : string;
  mutable dumped : bool;
  c_events : Metrics.counter option;
  c_dumps : Metrics.counter option;
}

let create ?(cap = 256) ?metrics ~nodes () =
  if nodes < 1 || cap < 1 then invalid_arg "Flight.create";
  let counter name =
    Option.map (fun m -> Metrics.counter m ~unit_:"ops" name) metrics
  in
  {
    nodes;
    cap;
    times = Array.make (nodes * cap) 0.0;
    kinds = Array.make (nodes * cap) (-1);
    fa = Array.make (nodes * cap) 0;
    fb = Array.make (nodes * cap) 0;
    fc = Array.make (nodes * cap) 0;
    fd = Array.make (nodes * cap) 0;
    seqs = Array.make (nodes * cap) 0;
    counts = Array.make nodes 0;
    seq = 0;
    enabled = true;
    label = "unlabeled";
    dumped = false;
    c_events = counter "flight.events";
    c_dumps = counter "flight.dumps";
  }

let[@inline] record t ~node ~time ~kind ~a ~b ~c ~d =
  if t.enabled && node >= 0 && node < t.nodes then begin
    let n = Array.unsafe_get t.counts node in
    let i = (node * t.cap) + (n mod t.cap) in
    Array.unsafe_set t.times i time;
    Array.unsafe_set t.kinds i kind;
    Array.unsafe_set t.fa i a;
    Array.unsafe_set t.fb i b;
    Array.unsafe_set t.fc i c;
    Array.unsafe_set t.fd i d;
    Array.unsafe_set t.seqs i t.seq;
    t.seq <- t.seq + 1;
    Array.unsafe_set t.counts node (n + 1);
    match t.c_events with None -> () | Some c -> Metrics.incr c
  end

let set_enabled t b = t.enabled <- b
let set_label t l = t.label <- l

(* ------------------------------------------------------------------ *)
(* Events and dumps *)

type event = {
  ev_time : float;
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
  dm_time : float;
  dm_object : int option;
  dm_events : event list;
  dm_slice : event list;
}

(* Slot [i] of [node]'s ring, keyed by its global sequence number. *)
let slot t ~node i =
  ( t.seqs.(i),
    {
      ev_time = t.times.(i);
      ev_node = node;
      ev_kind = t.kinds.(i);
      ev_a = t.fa.(i);
      ev_b = t.fb.(i);
      ev_c = t.fc.(i);
      ev_d = t.fd.(i);
    } )

(* The per-event global sequence number restores true record order
   across nodes — times alone tie constantly (many events share one
   engine timestamp). *)
let by_seq l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l

let events t =
  let out = ref [] in
  for node = 0 to t.nodes - 1 do
    let n = t.counts.(node) in
    let kept = min n t.cap in
    for j = n - kept to n - 1 do
      out := slot t ~node ((node * t.cap) + (j mod t.cap)) :: !out
    done
  done;
  List.map snd (by_seq !out)

(* Each ring is walked back from its newest slot until it yields [n]
   matches, so only [nodes * n] candidates are ever sorted. *)
let recent t ~n ~kinds =
  let out = ref [] in
  for node = 0 to t.nodes - 1 do
    let total = t.counts.(node) in
    let j = ref (total - 1) and found = ref 0 in
    while !j >= total - min total t.cap && !found < n do
      let i = (node * t.cap) + (!j mod t.cap) in
      if kinds t.kinds.(i) then begin
        out := slot t ~node i :: !out;
        incr found
      end;
      decr j
    done
  done;
  let sorted = by_seq !out in
  List.filteri (fun i _ -> i >= List.length sorted - n) sorted |> List.map snd

(* Is this an event *about* a specific object (physical address)? *)
let about ~phys e =
  let k = e.ev_kind in
  if (k >= k_read_local && k <= k_drop) || k = k_create then
    e.ev_a = phys || ((k = k_write_bump || k = k_write_move) && e.ev_b = phys)
  else k = k_dsan_violation && e.ev_a = phys

let object_slice ?object_ evs =
  match object_ with
  | None -> []
  | Some phys -> List.filter (about ~phys) evs

let dump t ~reason ?object_ ~now () =
  let evs = events t in
  {
    dm_label = t.label;
    dm_reason = reason;
    dm_nodes = t.nodes;
    dm_ring = t.cap;
    dm_time = now;
    dm_object = object_;
    dm_events = evs;
    dm_slice = object_slice ?object_ evs;
  }

(* ------------------------------------------------------------------ *)
(* JSON codec (drust-flight/v1) *)

let schema = "drust-flight/v1"

let field_names =
  [
    "schema";
    "label";
    "reason";
    "nodes";
    "ring";
    "time";
    "object";
    "events";
    "slice";
    "t";
    "node";
    "kind";
    "a";
    "b";
    "c";
    "d";
  ]

let event_to_json e =
  Json.Obj
    [
      ("t", Json.Num e.ev_time);
      ("node", Json.Num (float_of_int e.ev_node));
      ("kind", Json.Str (kind_name e.ev_kind));
      ("a", Json.Num (float_of_int e.ev_a));
      ("b", Json.Num (float_of_int e.ev_b));
      ("c", Json.Num (float_of_int e.ev_c));
      ("d", Json.Num (float_of_int e.ev_d));
    ]

let to_json d =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("label", Json.Str d.dm_label);
      ("reason", Json.Str d.dm_reason);
      ("nodes", Json.Num (float_of_int d.dm_nodes));
      ("ring", Json.Num (float_of_int d.dm_ring));
      ("time", Json.Num d.dm_time);
      ( "object",
        match d.dm_object with
        | None -> Json.Null
        | Some p -> Json.Num (float_of_int p) );
      ("events", Json.Arr (List.map event_to_json d.dm_events));
      ("slice", Json.Arr (List.map event_to_json d.dm_slice));
    ]

let kind_of_name s =
  let rec go i =
    if i >= Array.length kind_names then None
    else if String.equal kind_names.(i) s then Some i
    else go (i + 1)
  in
  go 0

let at_least min =
  Json.refine
    (fun n ->
      if n >= min then Ok n
      else Error (Printf.sprintf "%d, must be >= %d" n min))
    Json.int

let event_of_json nodes o =
  let int k = Json.req o k Json.int in
  let on_cluster n =
    if n >= 0 && n < nodes then Ok n
    else Error (Printf.sprintf "event on node %d of a %d-node dump" n nodes)
  in
  {
    ev_time = Json.req o "t" Json.number;
    ev_node = Json.req o "node" (Json.refine on_cluster Json.int);
    ev_kind = Json.req o "kind" (Json.enum "kind" kind_of_name);
    ev_a = int "a";
    ev_b = int "b";
    ev_c = int "c";
    ev_d = int "d";
  }

let dump_of_json o =
  ignore (Json.req o "schema" (Json.exactly schema));
  let nodes = Json.req o "nodes" (at_least 1) in
  let events k = Json.req o k (Json.list (Json.obj (event_of_json nodes))) in
  {
    dm_label = Json.req o "label" Json.string;
    dm_reason = Json.req o "reason" Json.string;
    dm_nodes = nodes;
    dm_ring = Json.req o "ring" (at_least 1);
    dm_time = Json.req o "time" Json.number;
    dm_object = Option.join (Json.opt o "object" (Json.nullable Json.int));
    dm_events = events "events";
    dm_slice = events "slice";
  }

let save ~path d = Json.save ~path (to_json d)
let load ~path = Json.decode_file ~path (Json.obj dump_of_json)

(* ------------------------------------------------------------------ *)
(* Automatic dumps on failure *)

let dump_dir =
  ref None
[@@dlint.allow
  "globals: per-process forensics configuration, set once by the CLI \
   before anything runs"]

let set_dump_dir d = dump_dir := d

let auto_dump_path t =
  let dir =
    match !dump_dir with Some d -> d | None -> Filename.current_dir_name
  in
  Filename.concat dir (t.label ^ ".flight.json")

let auto_dump t ~reason ?object_ ~now () =
  if t.dumped then false
  else begin
    t.dumped <- true;
    save ~path:(auto_dump_path t) (dump t ~reason ?object_ ~now ());
    (match t.c_dumps with None -> () | Some c -> Metrics.incr c);
    true
  end

let guard t ~now f =
  try f ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore
      (auto_dump t ~reason:("uncaught: " ^ Printexc.to_string e) ~now:(now ())
         ());
    Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Timeline rendering (shared by bench forensics and drust_sim
   --explain).  Everything below is pure over event lists, so it works
   identically on a loaded dump and on a live ring. *)

let pp_addr ppf p = Format.fprintf ppf "0x%x" p

let pp_event ppf e =
  let f fmt = Format.fprintf ppf fmt in
  f "t=%.9f node %d %-15s" e.ev_time e.ev_node (kind_name e.ev_kind);
  let k = e.ev_kind in
  if k = k_read_local || k = k_read_cached || k = k_read_fetch
     || k = k_read_remote then
    f " %a color %d (served by node %d)" pp_addr e.ev_a e.ev_c e.ev_b
  else if k = k_write_inplace then
    f " %a color %d (owner node %d)" pp_addr e.ev_a e.ev_c e.ev_d
  else if k = k_write_bump || k = k_write_move then
    f " %a -> %a color %d (owner node %d)" pp_addr e.ev_b pp_addr e.ev_a
      e.ev_c e.ev_d
  else if k = k_transfer then f " %a -> node %d" pp_addr e.ev_a e.ev_b
  else if k = k_drop then f " %a (served by node %d)" pp_addr e.ev_a e.ev_b
  else if k = k_create then
    f " %a on node %d (%d bytes)" pp_addr e.ev_a e.ev_b e.ev_d
  else if k >= k_fab_read && k <= k_fab_send then
    f " -> node %d (%d bytes)" e.ev_a e.ev_b
  else if k = k_fab_timeout || k = k_fab_drop then f " -> node %d" e.ev_a
  else if k = k_fab_retry then f " attempt %d" e.ev_a
  else if k = k_fab_stale_epoch then
    f " -> node %d (carried epoch %d, live %d)" e.ev_a e.ev_b e.ev_c
  else if k = k_view_change then f " epoch %d" e.ev_a
  else if k = k_handoff_prepare || k = k_handoff_abort then
    f " home %d: node %d -> node %d" e.ev_a e.ev_b e.ev_c
  else if k = k_handoff_commit then
    f " home %d: node %d -> node %d (epoch %d)" e.ev_a e.ev_b e.ev_c e.ev_d
  else if k = k_chain_reseed then
    f " home %d from node %d (%d hosts)" e.ev_a e.ev_b e.ev_c
  else if k = k_node_failed then f " node %d" e.ev_a
  else if k = k_promoted then
    f " home %d now served by node %d (replica %d)" e.ev_a e.ev_b e.ev_c
  else if k = k_fault_crash then f " node %d" e.ev_a
  else if k = k_fault_partition then f " %d node(s), first %d" e.ev_b e.ev_a
  else if k = k_fault_degrade then
    f " link %d -> %d (drop %d/1000)" e.ev_a e.ev_b e.ev_c
  else if k = k_dsan_violation then
    f " %a invariant #%d thread %d" pp_addr e.ev_a e.ev_b e.ev_c

let event_line e = Format.asprintf "%a" pp_event e

(* The derived staleness analysis: cached copies are keyed by the
   colored address they were fetched under, so a color change (bump or
   move) strands every copy fetched under the previous color. *)
let explain_object ?object_ evs =
  let slice = object_slice ?object_ evs in
  let lines = ref [] in
  let say fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let cached : (int * int) list ref = ref [] in
  (* (node, color) *)
  let owner = ref None in
  List.iter
    (fun e ->
      say "%s" (event_line e);
      let k = e.ev_kind in
      if k = k_create then owner := Some e.ev_node
      else if k = k_transfer then owner := Some e.ev_b
      else if k = k_write_move then owner := Some e.ev_node;
      if k = k_read_fetch then begin
        if not (List.mem (e.ev_node, e.ev_c) !cached) then
          cached := (e.ev_node, e.ev_c) :: !cached
      end
      else if k = k_write_bump || k = k_write_move then begin
        let stale =
          List.filter (fun (_, c) -> c <> e.ev_c) !cached
          |> List.map fst |> List.sort_uniq Int.compare
        in
        if stale <> [] then
          say
            "    ^ copies cached under the previous color on node(s) [%s] \
             went stale here"
            (String.concat "; " (List.map string_of_int stale));
        cached := List.filter (fun (_, c) -> c = e.ev_c) !cached
      end
      else if k = k_drop then begin
        cached := [];
        owner := None
      end
      else if k = k_dsan_violation then
        say "    ^ DSan flagged this object here")
    slice;
  (match (!owner, slice) with
  | Some n, _ :: _ -> say "last known owner: node %d" n
  | _ -> ());
  List.rev !lines

(* How many of a node's events the black-box view shows. *)
let render_limit = 50

let render_last evs ~node =
  let mine = List.filter (fun e -> e.ev_node = node) evs in
  let drop = List.length mine - render_limit in
  List.map event_line (List.filteri (fun i _ -> i >= drop) mine)
