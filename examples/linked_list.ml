(* Listing 3: a linked list whose nodes are tied with TBox.

   Summing a remote list by chasing plain Box pointers pays one network
   round trip per node; tying the nodes into an affinity group makes the
   first dereference fetch the whole list in one batch, after which every
   access is local.  This example measures both variants.

   Run with:  dune exec examples/linked_list.exe
   It exits 1 unless both first traversals sum the list (1 + ... + 64 =
   2080) and the TBox one takes under a tenth of the pointer chase's
   time: one batched fetch against 64 round trips.  (Untied, the second
   list is only about 1 % faster, from a warmer start.)  The @smoke
   alias runs it. *)

module Engine = Drust_sim.Engine
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module Dbox = Drust_core.Dbox
module Univ = Drust_util.Univ

let int_tag : int Univ.tag = Univ.create_tag ~name:"list.val"

(* pub struct Node { val: i32, next: Option<TBox<Node>> } — represented
   as an array of value boxes whose affinity chain mirrors `next`. *)
let build_list ctx ~on_node ~len ~tie =
  let nodes =
    Array.init len (fun i ->
        Dbox.make_on ctx ~node:on_node ~tag:int_tag ~size:64 (i + 1))
  in
  if tie then
    for i = 1 to len - 1 do
      Dbox.Tbox.tie ctx ~parent:nodes.(i - 1) ~child:nodes.(i)
    done;
  nodes

let sum ctx nodes =
  Array.fold_left (fun acc node -> acc + Dbox.read ctx node) 0 nodes

let timed_sum cluster ctx label nodes =
  Ctx.flush ctx;
  let t0 = Engine.now (Cluster.engine cluster) in
  let total = sum ctx nodes in
  Ctx.flush ctx;
  let dt = Engine.now (Cluster.engine cluster) -. t0 in
  Printf.printf "%-28s sum = %4d   time = %s\n" label total
    (Format.asprintf "%a" Drust_util.Units.pp_seconds dt);
  (total, dt)

let ok = ref true

let expect what cond =
  if not cond then begin
    prerr_endline ("linked_list: " ^ what);
    ok := false
  end

let () =
  let len = 64 in
  let cluster = Cluster.create { Params.default with Params.nodes = 2 } in
  (* Both lists live on node 1; the reader runs on node 0. *)
  Ctx.run_main cluster (fun ctx ->
      let plain = build_list ctx ~on_node:1 ~len ~tie:false in
      let tied = build_list ctx ~on_node:1 ~len ~tie:true in

      let s_plain, t_plain =
        timed_sum cluster ctx "plain Box (pointer chase)" plain
      in
      let s_tied, t_tied =
        timed_sum cluster ctx "TBox chain (batched fetch)" tied
      in
      Printf.printf "TBox speedup on first traversal: %.1fx\n"
        (t_plain /. t_tied);
      expect "the plain list does not sum to 2080" (s_plain = 2080);
      expect "the TBox list does not sum to 2080" (s_tied = 2080);
      expect "the TBox traversal is not 10x faster" (t_tied *. 10.0 < t_plain);

      (* Second traversals are cached either way. *)
      ignore (timed_sum cluster ctx "plain Box (cached)" plain);
      ignore (timed_sum cluster ctx "TBox chain (cached)" tied));
  if not !ok then exit 1
