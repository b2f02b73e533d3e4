type segment = Queue | Wire | Serialize | Protocol | Compute

let all_segments = [ Queue; Wire; Serialize; Protocol; Compute ]

let segment_name = function
  | Queue -> "queue"
  | Wire -> "wire"
  | Serialize -> "serialize"
  | Protocol -> "protocol"
  | Compute -> "compute"

(* Category -> segment.  Queueing covers both core and NIC waits; app
   and charged-compute time count as compute; everything else (verb
   bookkeeping, protocol state machine, controller work) is attributed
   to protocol overhead.  docs/OBSERVABILITY.md documents the mapping. *)
let segment_of_category = function
  | "cpu.queue" | "net.queue" -> Queue
  | "net.wire" -> Wire
  | "net.serialize" -> Serialize
  | "cpu.compute" | "app" -> Compute
  | _ -> Protocol

type path = {
  root : Span.event;
  total : float;  (** end-to-end duration of the root span, seconds *)
  segments : (segment * float) list;  (** every segment, fixed order *)
  node_count : int;  (** events in the subtree, root included *)
}


(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)

let analyze events =
  (* Children index: parent id -> child events.  Only completes carry
     duration; instants participate as zero-duration leaves. *)
  let children = Hashtbl.create 256 in
  List.iter
    (fun (e : Span.event) ->
      if e.Span.parent <> 0 then
        Hashtbl.replace children e.Span.parent
          (e :: (try Hashtbl.find children e.Span.parent with Not_found -> [])))
    events;
  let kids (e : Span.event) =
    try List.rev (Hashtbl.find children e.Span.id) with Not_found -> []
  in
  (* Attribute each node's self time (duration minus the sum of its
     children's durations) to its category's segment.  The per-segment
     totals then telescope: their sum equals the root's duration by
     construction, which is the invariant the tests enforce. *)
  let analyze_root (root : Span.event) =
    let totals = Hashtbl.create 8 in
    let count = ref 0 in
    let rec walk (e : Span.event) =
      incr count;
      let cs = kids e in
      let child_dur =
        List.fold_left (fun acc (c : Span.event) -> acc +. c.Span.dur) 0.0 cs
      in
      let self = e.Span.dur -. child_dur in
      let seg = segment_of_category e.Span.category in
      Hashtbl.replace totals seg
        (self +. (try Hashtbl.find totals seg with Not_found -> 0.0));
      List.iter walk cs
    in
    walk root;
    {
      root;
      total = root.Span.dur;
      segments =
        List.map
          (fun seg ->
            (seg, try Hashtbl.find totals seg with Not_found -> 0.0))
          all_segments;
      node_count = !count;
    }
  in
  List.filter_map
    (fun (e : Span.event) ->
      if e.Span.kind = Span.Complete && e.Span.parent = 0 then
        Some (analyze_root e)
      else None)
    events

let top_k k paths =
  let sorted =
    List.stable_sort
      (fun a b ->
        match Float.compare b.total a.total with
        | 0 -> (
            match Float.compare a.root.Span.ts b.root.Span.ts with
            | 0 -> Int.compare a.root.Span.id b.root.Span.id
            | c -> c)
        | c -> c)
      paths
  in
  List.filteri (fun i _ -> i < k) sorted

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp fmt p =
  let us v = v *. 1e6 in
  let pct v = if p.total > 0.0 then 100.0 *. v /. p.total else 0.0 in
  Format.fprintf fmt "%s [%s] %.3f us (%d event(s))@\n" p.root.Span.name
    p.root.Span.category (us p.total) p.node_count;
  List.iter
    (fun (seg, d) ->
      if d <> 0.0 then
        Format.fprintf fmt "    %-9s %10.3f us  %5.1f%%@\n" (segment_name seg)
          (us d) (pct d))
    p.segments

let to_string p = Format.asprintf "%a" pp p

let report events =
  let paths = top_k 10 (analyze events) in
  let b = Buffer.create 512 in
  List.iteri
    (fun i p -> Buffer.add_string b (Printf.sprintf "#%d %s" (i + 1) (to_string p)))
    paths;
  Buffer.contents b
