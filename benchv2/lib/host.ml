(* Host speed.  On a shared VM the host changes speed from one second to
   the next: the same kway op with the same seed takes 65 ms in one second
   and 105 ms in the next, and the speed drifts by a quarter over minutes.
   A raw wall time then says as much about the neighbours as about mlpart.
   So every interval the benchmark reports is scaled to a nominal host:
   it is multiplied by [nominal_ms / r], where [r] is the mean time of a
   fixed reference loop run just before and just after the interval.  The
   loop is the benchmark's own code, so no change to mlpart can speed it
   up.

   The neighbours slow the host in two ways, by taking CPU time and by
   loading the memory system, and the loop mixes the two kinds of work
   mlpart does.  Over ten minutes of fixed ops beside five candidate
   loops, random updates of a 2 MiB table alone slowed about twice as
   much as the ops (a log-log slope of 0.5 of op time on loop time),
   register arithmetic alone about a quarter less (1.3); this mix, 40% of
   the time in the table and 60% in registers, tracked them at 0.9-1.0. *)

(* The reference loop's time on the nominal host: about its median on
   the host the bounds were sized on, so that scaled times read close to
   raw ones there. *)
let nominal_ms = 3.0

let table = Domain.DLS.new_key (fun () -> Array.make (1 lsl 18) 0)

(* Wall time in ms of the reference loop: 250,000 pseudo-random
   read-modify-writes of a 2 MiB table private to the calling domain,
   then 900,000 dependent steps of the same generator in registers. *)
let reference_ms () =
  let a = Domain.DLS.get table in
  let t0 = Proc.now_ms () in
  let x = ref 12345 in
  for _ = 1 to 250_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x land (Array.length a - 1) in
    a.(j) <- a.(j) + 1
  done;
  for _ = 1 to 900_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  Proc.now_ms () -. t0

(* The factor that scales an interval to the nominal host, from the
   reference times measured just before and just after it. *)
let factor ~before ~after = 2. *. nominal_ms /. (before +. after)
