type t = { at : float; mutable hit : bool }

(* Seconds on the monotonic clock. *)
let now () = float_of_int (Clock.now_ns ()) *. 1e-9

let make ~seconds =
  let t = { at = now () +. seconds; hit = false } in
  if seconds <= 0.0 then t.hit <- true;
  t

let check t =
  if not t.hit then t.hit <- now () >= t.at;
  t.hit

let expired t = t.hit
let remaining t = t.at -. now ()
