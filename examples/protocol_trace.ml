(* Watch the coherence protocol on the wire: enable the cluster's span
   tracer and replay a small ownership story — create, remote read
   (one-sided READ), local write (color bump: silence!), remote write
   (move + owner write-back), and a TBox group fetch.

   Run with:  dune exec examples/protocol_trace.exe *)

module Span = Drust_obs.Span
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module P = Drust_core.Protocol
module Univ = Drust_util.Univ

let tag : int Univ.tag = Univ.create_tag ~name:"trace.int"

let pp_event (e : Span.event) =
  let args =
    match e.Span.args with
    | [] -> ""
    | kvs ->
        " ("
        ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
        ^ ")"
  in
  Printf.printf "  [%-10s] node %d  %s%s\n" e.Span.category e.Span.track
    e.Span.name args

let step spans name f =
  Printf.printf "\n--- %s ---\n" name;
  let before = Span.count spans in
  f ();
  if Span.count spans = before then
    print_endline "  (no traffic — the point of the protocol)"
  else
    List.iteri (fun i e -> if i >= before then pp_event e) (Span.events spans)

let () =
  let cluster = Cluster.create { Params.default with Params.nodes = 4 } in
  let spans = Cluster.spans cluster in
  Span.enable spans;
  Ctx.run_main cluster (fun ctx0 ->
      let ctx2 = Ctx.make cluster ~node:2 in

      let o = ref None in
      step spans "create on node 0 (local: silent)" (fun () ->
          o := Some (P.create ctx0 ~size:256 (Univ.pack tag 1)));
      let o = Option.get !o in

      step spans "remote read from node 2 (one one-sided READ)" (fun () ->
          let r = P.borrow_imm ctx2 o in
          ignore (P.imm_deref ctx2 r);
          P.drop_imm ctx2 r);

      step spans "second remote read (cache hit: silent)" (fun () ->
          let r = P.borrow_imm ctx2 o in
          ignore (P.imm_deref ctx2 r);
          P.drop_imm ctx2 r);

      step spans "local write on node 0 (color bump: one BUMP mark)"
        (fun () -> P.owner_write ctx0 o (Univ.pack tag 2));

      step spans
        "remote write from node 2 (move + async dealloc + owner update)"
        (fun () ->
          let m = P.borrow_mut ctx2 o in
          P.mut_write ctx2 m (Univ.pack tag 3);
          P.drop_mut ctx2 m);

      step spans "TBox group: tie two children, fetch all in one READ"
        (fun () ->
          let p = P.create_on ctx0 ~node:0 ~size:128 (Univ.pack tag 10) in
          let c1 = P.create_on ctx0 ~node:0 ~size:128 (Univ.pack tag 11) in
          let c2 = P.create_on ctx0 ~node:0 ~size:128 (Univ.pack tag 12) in
          P.tie ctx0 ~parent:p ~child:c1;
          P.tie ctx0 ~parent:c1 ~child:c2;
          let r = P.borrow_imm ctx2 p in
          ignore (P.imm_deref ctx2 r);
          P.drop_imm ctx2 r);

      Printf.printf "\n%d trace events total; final value lives on node %d\n"
        (Span.count spans)
        (Drust_memory.Gaddr.node_of (P.gaddr o)))
