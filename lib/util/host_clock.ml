let timed f =
  let clock () =
    (Unix.gettimeofday ()
    [@dlint.allow
      "determinism: host wall-clock for stderr notes and the opt-in \
       host_ms column only — stdout stays comparable across runs"])
  in
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)
