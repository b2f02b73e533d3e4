type labels = (string * string) list

type counter = { mutable count : int }
type gauge = { mutable g_level : float }

(* A histogram's running sum and extremes: a float-only record, so the
   fields are stored unboxed and [observe] allocates nothing. *)
type moments = { mutable sum : float; mutable lo : float; mutable hi : float }

type histogram = {
  bounds : float array; (* ascending upper bounds *)
  counts : int array; (* one slot per bound + a final overflow slot *)
  mutable n : int;
  m : moments;
}

type instrument = C of counter | G of gauge | H of histogram

type metric = {
  m_name : string;
  m_labels : labels;
  m_unit : string;
  m_inst : instrument;
}

type t = { tbl : (string * labels, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let norm_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register t ~labels ~unit_ name make check =
  let labels = norm_labels labels in
  match Hashtbl.find_opt t.tbl (name, labels) with
  | Some m -> (
      match check m.m_inst with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name
               (kind_name m.m_inst)))
  | None ->
      let inst, v = make () in
      Hashtbl.replace t.tbl (name, labels)
        { m_name = name; m_labels = labels; m_unit = unit_; m_inst = inst };
      v

let counter t ?(labels = []) ?(unit_ = "") name =
  register t ~labels ~unit_ name
    (fun () ->
      let c = { count = 0 } in
      (C c, c))
    (function C c -> Some c | _ -> None)

let gauge t ?(labels = []) ?(unit_ = "") name =
  register t ~labels ~unit_ name
    (fun () ->
      let g = { g_level = 0.0 } in
      (G g, g))
    (function G g -> Some g | _ -> None)

(* 1us .. 100ms, log-spaced: the span of one simulated network verb up to
   a whole experiment phase. *)
let default_buckets =
  [| 1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5; 1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3;
     1e-2; 2e-2; 5e-2; 1e-1 |]

let histogram t ?(buckets = default_buckets) ?(labels = []) ?(unit_ = "") name =
  let k = Array.length buckets in
  if k = 0 then invalid_arg "Metrics.histogram: need at least one bucket";
  for i = 1 to k - 1 do
    if buckets.(i - 1) >= buckets.(i) then
      invalid_arg "Metrics.histogram: buckets must be strictly ascending"
  done;
  register t ~labels ~unit_ name
    (fun () ->
      let h =
        { bounds = Array.copy buckets;
          counts = Array.make (k + 1) 0; n = 0;
          m = { sum = 0.0; lo = infinity; hi = neg_infinity } }
      in
      (H h, h))
    (function H h -> Some h | _ -> None)

let incr c = c.count <- c.count + 1
let add c n = c.count <- c.count + n
let set g v = g.g_level <- v

let[@inline] observe h v =
  let k = Array.length h.bounds in
  let i = ref 0 in
  while !i < k && v > h.bounds.(!i) do Stdlib.incr i done;
  h.counts.(!i) <- h.counts.(!i) + 1;
  let m = h.m in
  m.sum <- m.sum +. v;
  h.n <- h.n + 1;
  if v < m.lo then m.lo <- v;
  if v > m.hi then m.hi <- v

let value c = c.count

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type histo = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float * int) list;
}

type value = Count of int | Level of float | Histo of histo

type sample = {
  s_name : string;
  s_labels : labels;
  s_unit : string;
  s_value : value;
}

type snapshot = sample list

let sample_of m =
  let v =
    match m.m_inst with
    | C c -> Count c.count
    | G g -> Level g.g_level
    | H h ->
        let k = Array.length h.bounds in
        let buckets =
          List.init (k + 1) (fun i ->
              ((if i < k then h.bounds.(i) else infinity), h.counts.(i)))
        in
        Histo
          {
            h_count = h.n;
            h_sum = h.m.sum;
            h_min = (if h.n = 0 then nan else h.m.lo);
            h_max = (if h.n = 0 then nan else h.m.hi);
            h_buckets = buckets;
          }
  in
  { s_name = m.m_name; s_labels = m.m_labels; s_unit = m.m_unit; s_value = v }

let compare_labels la lb =
  List.compare
    (fun (ka, va) (kb, vb) ->
      match String.compare ka kb with 0 -> String.compare va vb | c -> c)
    la lb

let compare_key (na, la) (nb, lb) =
  match String.compare na nb with 0 -> compare_labels la lb | c -> c

let snapshot t =
  Drust_util.Tables.sorted_bindings t.tbl ~cmp:compare_key
  |> List.map (fun (_, m) -> sample_of m)

(* ------------------------------------------------------------------ *)
(* Quantiles & merging over snapshot histograms                        *)

let quantile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.quantile: q outside [0,1]";
  if h.h_count = 0 then None
  else begin
    (* Rank of the target sample (1-based, nearest-rank with linear
       interpolation inside the containing bucket). *)
    let rank = q *. Float.of_int h.h_count in
    let rank = Float.max rank 1.0 in
    let clamp v = Float.max h.h_min (Float.min h.h_max v) in
    let rec walk seen prev_bound = function
      | [] -> h.h_max
      | (bound, n) :: rest ->
          let seen' = seen + n in
          if Float.of_int seen' >= rank && n > 0 then begin
            (* The target sample lives in this bucket: interpolate
               between its edges by rank position.  The overflow bucket
               has no finite upper bound; use the observed max. *)
            let lo = Float.max prev_bound h.h_min in
            let hi =
              if bound = infinity then h.h_max else Float.min bound h.h_max
            in
            let frac = (rank -. Float.of_int seen) /. Float.of_int n in
            let frac = Float.max 0.0 (Float.min 1.0 frac) in
            clamp (lo +. ((hi -. lo) *. frac))
          end
          else walk seen' bound rest
    in
    Some (walk 0 neg_infinity h.h_buckets)
  end

let merge_histos a b =
  let bounds_of h = List.map fst h.h_buckets in
  if bounds_of a <> bounds_of b then
    invalid_arg "Metrics.merge_histos: bucket bounds differ";
  let merged_min =
    if a.h_count = 0 then b.h_min
    else if b.h_count = 0 then a.h_min
    else Float.min a.h_min b.h_min
  and merged_max =
    if a.h_count = 0 then b.h_max
    else if b.h_count = 0 then a.h_max
    else Float.max a.h_max b.h_max
  in
  {
    h_count = a.h_count + b.h_count;
    h_sum = a.h_sum +. b.h_sum;
    h_min = merged_min;
    h_max = merged_max;
    h_buckets =
      List.map2
        (fun (bound, ca) (_, cb) -> (bound, ca + cb))
        a.h_buckets b.h_buckets;
  }

let merged_histo snap name =
  List.fold_left
    (fun acc s ->
      match s.s_value with
      | Histo h when String.equal s.s_name name && h.h_count > 0 -> (
          match acc with
          | None -> Some h
          | Some m -> Some (merge_histos m h))
      | _ -> acc)
    None snap

let names t =
  Drust_util.Tables.sorted_keys t.tbl ~cmp:compare_key
  |> List.map fst
  |> List.sort_uniq String.compare

let total snap name =
  List.fold_left
    (fun acc s ->
      match s.s_value with
      | Count n when s.s_name = name -> acc + n
      | _ -> acc)
    0 snap

let find snap ?(labels = []) name =
  let labels = norm_labels labels in
  List.find_map
    (fun s ->
      if s.s_name = name && s.s_labels = labels then Some s.s_value else None)
    snap
