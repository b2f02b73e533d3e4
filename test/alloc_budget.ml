(* Allocation budgets: minor-heap words per call of a hot path, checked
   against a ceiling so that an allocation regression fails the tests.
   Ceilings are the measured cost plus a little slack in the default
   build, the release profile that dune-workspace selects: it compiles
   without -opaque, so the hot path's [@inline] functions inline across
   modules and their floats stay unboxed.  A [--profile dev] build boxes
   them again and fails several of these ceilings. *)

module Engine = Drust_sim.Engine

(* Words allocated per call of [body i], i = 1 .. [n], run in one
   process of [engine]; [run] drives the simulation to completion.
   Everything the domain allocates meanwhile counts, engine events
   included: the words a simulated op really costs. *)
let per_call ?(n = 10_000) engine ~run body =
  let words = ref nan in
  ignore
    (Engine.spawn engine (fun () ->
         let w0 = Gc.minor_words () in
         for i = 1 to n do
           body i
         done;
         words := (Gc.minor_words () -. w0) /. float_of_int n));
  run ();
  !words

(* One test case's readings, newest first: (name, words, ceiling). *)
type t = { mutable readings : (string * float * float) list }

let check t name ~max words = t.readings <- (name, words, max) :: t.readings

(* A test case over several ceilings: [body] takes every reading with
   [check], then each is printed and the case fails once, naming every
   ceiling exceeded, so that the first failure hides none of the rest. *)
let case body () =
  let t = { readings = [] } in
  body t;
  let readings = List.rev t.readings in
  List.iter
    (fun (name, words, max) ->
      Printf.printf "%s: %.1f minor words per call, at most %g\n" name words
        max)
    readings;
  match List.filter (fun (_, words, max) -> not (words <= max)) readings with
  | [] -> ()
  | over ->
      Alcotest.failf "%d of %d allocation ceilings exceeded: %s"
        (List.length over) (List.length readings)
        (String.concat "; "
           (List.map
              (fun (name, words, max) ->
                Printf.sprintf "%s read %.1f words, ceiling %g" name words max)
              over))
