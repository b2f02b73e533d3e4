module Rng = Drust_util.Rng
module Zipf = Drust_util.Zipf

type t = {
  users : int;
  fanouts : int array;
  zipf : Zipf.t;
  (* Follower lists are generated lazily and memoized: most users are
     never posted to in a given run. *)
  follower_cache : (int, int list) Hashtbl.t;
  base_seed : int;
}

let max_fanout = 16

let create ~users ~seed () =
  if users <= 1 then invalid_arg "Social_graph.create: need at least two users";
  let rng = Rng.create ~seed in
  let zipf = Zipf.create ~n:users ~theta:0.9 in
  (* Power-law fanout: user u's follower count shrinks with rank. *)
  let fanouts =
    Array.init users (fun u ->
        let rank = u + 1 in
        let base = Float.to_int (Float.of_int max_fanout /. Float.pow (Float.of_int rank) 0.45) in
        max 1 (base + Rng.int rng 3))
  in
  { users; fanouts; zipf; follower_cache = Hashtbl.create 256; base_seed = seed }

let followers t u =
  let u = u mod t.users in
  match Hashtbl.find_opt t.follower_cache u with
  | Some l -> l
  | None ->
      let n = min max_fanout t.fanouts.(u) in
      let rng = Rng.create ~seed:(t.base_seed + (u * 7919) + 13) in
      let l = List.init n (fun _ -> Rng.int rng t.users) in
      Hashtbl.replace t.follower_cache u l;
      l

let sample_author t rng = Zipf.sample t.zipf rng
let sample_reader t rng = Zipf.sample t.zipf rng
