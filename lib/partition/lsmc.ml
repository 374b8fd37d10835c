module H = Mlpart_hypergraph.Hypergraph
module Rng = Mlpart_util.Rng

type config = { engine : Fm.config; descents : int }

let default = { engine = Fm.default; descents = 100 }

(* Kick size as a fraction of the module count: 5% jumps far enough to
   leave the current basin while the next descent stays cheap. *)
let kick_fraction = 0.05

type result = { side : int array; cut : int }

(* Kick: flip a random connected blob.  Growing the blob along nets (rather
   than flipping isolated random modules) makes the jump large in solution
   space but cheap in cut, which is what lets the next descent land in a
   different basin. *)
let kick rng h side fraction =
  let n = H.num_modules h in
  let target = Stdlib.max 2 (int_of_float (fraction *. float_of_int n)) in
  let kicked = Array.copy side in
  let in_blob = Array.make n false in
  let queue = Queue.create () in
  let seed = Rng.int rng n in
  Queue.add seed queue;
  in_blob.(seed) <- true;
  let count = ref 0 in
  while !count < target && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr count;
    kicked.(v) <- 1 - kicked.(v);
    H.iter_nets_of h v (fun e ->
        if H.net_size h e <= 16 then
          H.iter_pins_of h e (fun u ->
              if (not in_blob.(u)) && Rng.float rng 1.0 < 0.5 then begin
                in_blob.(u) <- true;
                Queue.add u queue
              end))
  done;
  kicked

let run ?(config = default) ?init rng h =
  let arena = Fm.create_arena ~h () in
  let descend init = Fm.run ~config:config.engine ?init ~arena rng h in
  let first = descend init in
  let best_side = ref first.Fm.side in
  let best_cut = ref first.Fm.cut in
  for _ = 2 to config.descents do
    let kicked = kick rng h !best_side kick_fraction in
    let r = descend (Some kicked) in
    if r.Fm.cut < !best_cut then begin
      best_cut := r.Fm.cut;
      best_side := r.Fm.side
    end
  done;
  { side = !best_side; cut = !best_cut }
