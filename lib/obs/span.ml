type kind = Complete | Instant

type event = {
  id : int;
  parent : int;
  name : string;
  category : string;
  track : int;
  ts : float;
  dur : float;
  depth : int;
  args : (string * string) list;
  kind : kind;
  flow_out : int list;
  flow_in : int list;
}

type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_cat : string;
  sp_track : int;
  sp_ts : float;
  sp_depth : int;
  sp_args : (string * string) list;
  mutable sp_live : bool;
  mutable sp_flow_out : int list;
}

type dur_stats = {
  d_count : int;
  d_total : float;
  d_min : float;
  d_max : float;
}

(* A category's running durations: float-only, so its fields are stored
   unboxed and a finish updates it in place without allocating.  The
   count is exact as a float far beyond any run's span count. *)
type dur_acc = {
  mutable a_count : float;
  mutable a_total : float;
  mutable a_min : float;
  mutable a_max : float;
}

type t = {
  clock : Drust_util.Vclock.t;
  capacity : int;
  mutable ring : event option array;
      (* allocated by the first [enable]: a tracer that is never
         switched on costs no ring *)
  mutable next : int;
  mutable total : int;
  mutable enabled : bool;
  mutable next_id : int; (* event/span ids; 0 is reserved for "none" *)
  mutable next_flow : int; (* flow-edge ids, per-tracer, deterministic *)
  depths : (int, int) Hashtbl.t; (* track -> open span count *)
  stats : (string, dur_acc) Hashtbl.t; (* category -> durations *)
}

let create ?(capacity = 65536) ~clock () =
  if capacity <= 0 then invalid_arg "Span.create: capacity must be positive";
  {
    clock;
    capacity;
    ring = [||];
    next = 0;
    total = 0;
    enabled = false;
    next_id = 1;
    next_flow = 1;
    depths = Hashtbl.create 16;
    stats = Hashtbl.create 16;
  }

let enable t =
  if Array.length t.ring = 0 then t.ring <- Array.make t.capacity None;
  t.enabled <- true
let is_enabled t = t.enabled

let null =
  { sp_id = 0; sp_parent = 0; sp_name = ""; sp_cat = ""; sp_track = 0;
    sp_ts = 0.0; sp_depth = 0; sp_args = []; sp_live = false;
    sp_flow_out = [] }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let fresh_flow_id t =
  let id = t.next_flow in
  t.next_flow <- id + 1;
  id

let record t ev =
  t.ring.(t.next) <- Some ev;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.total <- t.total + 1

(* [find] rather than [find_opt]: no option per lookup. *)
let depth t ~track =
  match Hashtbl.find t.depths track with d -> d | exception Not_found -> 0

let start t ?(track = 0) ?(args = []) ?parent ~category name =
  if not t.enabled then null
  else begin
    let d = depth t ~track + 1 in
    Hashtbl.replace t.depths track d;
    let parent_id = match parent with Some p -> p.sp_id | None -> 0 in
    { sp_id = fresh_id t; sp_parent = parent_id; sp_name = name;
      sp_cat = category; sp_track = track; sp_ts = t.clock.now; sp_depth = d;
      sp_args = args; sp_live = true; sp_flow_out = [] }
  end

let add_flow_out sp fid =
  if sp.sp_live then sp.sp_flow_out <- fid :: sp.sp_flow_out

let note_duration t category dur =
  match Hashtbl.find t.stats category with
  | a ->
      a.a_count <- a.a_count +. 1.0;
      a.a_total <- a.a_total +. dur;
      a.a_min <- Float.min a.a_min dur;
      a.a_max <- Float.max a.a_max dur
  | exception Not_found ->
      Hashtbl.replace t.stats category
        { a_count = 1.0; a_total = dur; a_min = dur; a_max = dur }

let finish_live t sp =
  sp.sp_live <- false;
  let d = depth t ~track:sp.sp_track in
  if d > 0 then Hashtbl.replace t.depths sp.sp_track (d - 1);
  if t.enabled then begin
    let dur = t.clock.now -. sp.sp_ts in
    note_duration t sp.sp_cat dur;
    record t
      { id = sp.sp_id; parent = sp.sp_parent; name = sp.sp_name;
        category = sp.sp_cat; track = sp.sp_track; ts = sp.sp_ts; dur;
        depth = sp.sp_depth; args = sp.sp_args; kind = Complete;
        flow_out = List.rev sp.sp_flow_out; flow_in = [] }
  end

(* Untraced, every span is [null]: the inlined test is all a finish
   costs. *)
let[@inline] finish t sp = if sp.sp_live then finish_live t sp

let instant t ?(track = 0) ?(args = []) ?parent ?(flow_out = [])
    ?(flow_in = []) ~category name =
  if t.enabled then
    let parent_id = match parent with Some p -> p.sp_id | None -> 0 in
    record t
      { id = fresh_id t; parent = parent_id; name; category; track;
        ts = t.clock.now; dur = 0.0; depth = depth t ~track; args;
        kind = Instant; flow_out; flow_in }

let events t =
  let cap = Array.length t.ring in
  let out = ref [] in
  for i = cap - 1 downto 0 do
    (* Oldest entry sits at [next] once the ring has wrapped. *)
    match t.ring.((t.next + i) mod cap) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  !out

let count t = t.total

let duration_stats t =
  List.map
    (fun (category, a) ->
      ( category,
        { d_count = Float.to_int a.a_count; d_total = a.a_total;
          d_min = a.a_min; d_max = a.a_max } ))
    (Drust_util.Tables.sorted_bindings t.stats ~cmp:String.compare)

let pp_args fmt = function
  | [] -> ()
  | args ->
      Format.fprintf fmt " (%s)"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) args))

let dump ?(limit = 40) fmt t =
  let all = events t in
  let n = List.length all in
  let tail = if n <= limit then all else List.filteri (fun i _ -> i >= n - limit) all in
  Format.fprintf fmt "spans: %d event(s) recorded, showing last %d@\n" t.total
    (List.length tail);
  List.iter
    (fun e ->
      match e.kind with
      | Instant ->
          Format.fprintf fmt "  [%10.6f] #%d %-10s %s%a@\n" e.ts e.track
            e.category e.name pp_args e.args
      | Complete ->
          Format.fprintf fmt "  [%10.6f] #%d %-10s %s (%.1f us)%a@\n" e.ts
            e.track e.category e.name (e.dur *. 1e6) pp_args e.args)
    tail
