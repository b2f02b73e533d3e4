(* Allocation budgets: minor-heap words per call of a hot path, checked
   against a ceiling so that an allocation regression fails the tests.
   Ceilings are the measured cost plus a little slack; they hold for the
   default dev build, and optimised builds only allocate less. *)

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

let check name ~max words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f minor words per call, at most %g" name words max)
    true (words <= max)
