(* Utilization integral: sum over time of (held / capacity).  A
   float-only record, so its fields are stored unboxed and accounting
   allocates nothing. *)
type util = {
  mutable area : float;
  mutable since : float;
  mutable last_change : float;
}

type t = {
  engine : Engine.t;
  capacity : int;
  mutable held : int;
  waiters : (unit -> unit) Queue.t;
  util : util;
}

let create engine ~capacity =
  if capacity <= 0 then invalid_arg "Resource.create: capacity must be positive";
  {
    engine;
    capacity;
    held = 0;
    waiters = Queue.create ();
    util =
      {
        area = 0.0;
        since = Engine.now engine;
        last_change = Engine.now engine;
      };
  }


let[@inline] account t =
  let u = t.util in
  let now = Engine.now t.engine in
  let dt = now -. u.last_change in
  if dt > 0.0 then
    u.area <-
      u.area +. (dt *. (Float.of_int t.held /. Float.of_int t.capacity));
  u.last_change <- now

let acquire t =
  if t.held < t.capacity && Queue.is_empty t.waiters then begin
    account t;
    t.held <- t.held + 1
  end
  else begin
    Engine.suspend (fun resume -> Queue.push resume t.waiters);
    (* The releaser transferred its unit to us: [held] stays constant. *)
    ()
  end

let release t =
  if t.held <= 0 then invalid_arg "Resource.release: nothing held";
  if Queue.is_empty t.waiters then begin
    account t;
    t.held <- t.held - 1
  end
  else
    (* Hand the unit over without dropping [held]: the waiter resumes
       holding it, so utilization accounting sees no gap. *)
    let next = Queue.pop t.waiters in
    next ()

let busy_fraction t = Float.of_int t.held /. Float.of_int t.capacity

let utilization t ~now =
  let u = t.util in
  let span = now -. u.since in
  if span <= 0.0 then 0.0
  else begin
    let live = (now -. u.last_change) *. busy_fraction t in
    (u.area +. live) /. span
  end

let reset_utilization t ~now =
  let u = t.util in
  u.area <- 0.0;
  u.since <- now;
  u.last_change <- now
