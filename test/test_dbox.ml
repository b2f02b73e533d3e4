(* Tests for the typed public API (Dbox / Imm / Tbox). *)

module Engine = Drust_sim.Engine
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module Dbox = Drust_core.Dbox
module Univ = Drust_util.Univ
module B = Drust_ownership.Borrow_state

let int_tag : int Univ.tag = Univ.create_tag ~name:"dbox.int"
let str_tag : string Univ.tag = Univ.create_tag ~name:"dbox.str"

let small_params nodes =
  {
    Params.default with
    Params.nodes;
    cores_per_node = 4;
    mem_per_node = Drust_util.Units.mib 64;
  }

let in_cluster ?(nodes = 4) body =
  let cluster = Cluster.create (small_params nodes) in
  let result = ref None in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         let ctx = Ctx.make cluster ~node:0 in
         result := Some (body cluster ctx)));
  Cluster.run cluster;
  match !result with Some v -> v | None -> Alcotest.fail "body did not run"

(* ------------------------------------------------------------------ *)
(* Dbox typed layer *)

let test_make_read_write () =
  in_cluster (fun _ ctx ->
      let b = Dbox.make ctx ~tag:int_tag ~size:8 41 in
      Alcotest.(check int) "read" 41 (Dbox.read ctx b);
      Dbox.with_borrow_mut ctx b (fun _ -> (42, ()));
      Alcotest.(check int) "write" 42 (Dbox.read ctx b);
      Dbox.drop ctx b)

let test_type_safety () =
  in_cluster (fun _ ctx ->
      (* Two boxes with different tags cannot be confused even though the
         heap stores untyped values. *)
      let a = Dbox.make ctx ~tag:int_tag ~size:8 1 in
      let s = Dbox.make ctx ~tag:str_tag ~size:16 "hi" in
      Alcotest.(check int) "int box" 1 (Dbox.read ctx a);
      Alcotest.(check string) "string box" "hi" (Dbox.read ctx s))

let test_scoped_borrows () =
  in_cluster (fun _ ctx ->
      let b = Dbox.make ctx ~tag:int_tag ~size:8 10 in
      let old = Dbox.with_borrow_mut ctx b (fun v -> (v + 5, v)) in
      Alcotest.(check int) "returned result" 10 old;
      Alcotest.(check int) "wrote through" 15 (Dbox.read ctx b))

let test_imm_refs_shared_across_nodes () =
  in_cluster (fun _ ctx ->
      let b = Dbox.make_on ctx ~node:1 ~tag:int_tag ~size:64 7 in
      let r1 = Dbox.Imm.borrow ctx b in
      let r2 = Dbox.Imm.clone ctx r1 in
      Alcotest.(check int) "r1" 7 (Dbox.Imm.deref ctx r1);
      Alcotest.(check int) "r2" 7 (Dbox.Imm.deref ctx r2);
      Dbox.Imm.drop ctx r1;
      Dbox.Imm.drop ctx r2;
      Dbox.with_borrow_mut ctx b (fun _ -> (8, ()));
      Alcotest.(check int) "post-borrow write" 8 (Dbox.read ctx b))

let test_mut_ref_cycle () =
  in_cluster (fun _ ctx ->
      let b = Dbox.make ctx ~tag:int_tag ~size:8 0 in
      (* borrow, deref, write, drop: one mutable-reference scope *)
      let seen = Dbox.with_borrow_mut ctx b (fun v -> (10, v)) in
      Alcotest.(check int) "deref" 0 seen;
      Alcotest.(check int) "owner sees" 10 (Dbox.read ctx b))

let test_borrow_conflicts_raise () =
  in_cluster (fun _ ctx ->
      let b = Dbox.make ctx ~tag:int_tag ~size:8 0 in
      let r = Dbox.Imm.borrow ctx b in
      Alcotest.(check bool) "mut during imm" true
        (try
           Dbox.with_borrow_mut ctx b (fun v -> (v, ()));
           false
         with B.Violation _ -> true);
      Dbox.Imm.drop ctx r)

let test_exception_safety () =
  in_cluster (fun _ ctx ->
      let b = Dbox.make ctx ~tag:int_tag ~size:8 1 in
      (* An exception inside a scoped borrow releases it. *)
      (try Dbox.with_borrow_mut ctx b (fun _ -> failwith "x") with Failure _ -> ());
      (* Borrow machinery is balanced, so both kinds of borrow succeed. *)
      let r = Dbox.Imm.borrow ctx b in
      Alcotest.(check int) "still readable" 1 (Dbox.Imm.deref ctx r);
      Dbox.Imm.drop ctx r;
      Dbox.with_borrow_mut ctx b (fun v -> (v + 1, ()));
      Alcotest.(check int) "still writable" 2 (Dbox.read ctx b))

let test_tbox_list () =
  in_cluster (fun cluster ctx ->
      (* The Listing 3 pattern: tying nodes makes traversal one fetch. *)
      let nodes_ =
        Array.init 8 (fun i -> Dbox.make_on ctx ~node:1 ~tag:int_tag ~size:64 i)
      in
      for i = 1 to 7 do
        Dbox.Tbox.tie ctx ~parent:nodes_.(i - 1) ~child:nodes_.(i)
      done;
      Ctx.flush ctx;
      let t0 = Engine.now (Cluster.engine cluster) in
      let total = Array.fold_left (fun acc n -> acc + Dbox.read ctx n) 0 nodes_ in
      Ctx.flush ctx;
      let dt = Engine.now (Cluster.engine cluster) -. t0 in
      Alcotest.(check int) "sum" 28 total;
      (* One batched fetch, not eight round trips (8 x ~3.6us). *)
      Alcotest.(check bool)
        (Printf.sprintf "one batch: %.1fus < 10us" (dt *. 1e6))
        true (dt < 10e-6))

let () =
  Alcotest.run "dbox"
    [
      ( "typed",
        [
          Alcotest.test_case "make/read/write" `Quick test_make_read_write;
          Alcotest.test_case "type safety" `Quick test_type_safety;
          Alcotest.test_case "scoped borrows" `Quick test_scoped_borrows;
          Alcotest.test_case "imm refs" `Quick test_imm_refs_shared_across_nodes;
          Alcotest.test_case "mut ref cycle" `Quick test_mut_ref_cycle;
          Alcotest.test_case "conflicts raise" `Quick test_borrow_conflicts_raise;
          Alcotest.test_case "exception safety" `Quick test_exception_safety;
          Alcotest.test_case "tbox list" `Quick test_tbox_list;
        ] );
    ]
