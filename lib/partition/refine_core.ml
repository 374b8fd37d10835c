(* Nets with more pins than this are invisible to gains but still counted
   in the cut: one move almost never uncuts such a net, and its pins would
   dominate every gain update. *)
let net_threshold = 200

type ops = {
  select : unit -> int;
  commit : int -> int;
  undo : lo:int -> hi:int -> unit;
  rebuild : first_bad:int -> kept:int -> unit;
}

type pass = { gain : int; moves : int; rolled_back : int }

let run_pass ~order ?early_exit ?backtrack ops =
  let moved = ref 0 in
  let cum = ref 0 in
  let best = ref 0 in
  let best_count = ref 0 in
  let backtracks = ref 0 in
  let continue = ref true in
  while !continue do
    let v = ops.select () in
    if v < 0 then continue := false
    else begin
      let g = ops.commit v in
      order.(!moved) <- v;
      incr moved;
      cum := !cum + g;
      if !cum > !best then begin
        best := !cum;
        best_count := !moved
      end
      else begin
        let non_improving = !moved - !best_count in
        (match early_exit with
        | Some k when non_improving >= k -> continue := false
        | Some _ | None -> ());
        match backtrack with
        | Some (window, limit) when non_improving >= window && !backtracks < limit
          ->
            incr backtracks;
            (* Undo the losing streak, then let the host freeze its first
               module and rebuild selection structures. *)
            let first_bad = order.(!best_count) in
            ops.undo ~lo:!best_count ~hi:!moved;
            moved := !best_count;
            cum := !best;
            ops.rebuild ~first_bad ~kept:!moved
        | Some _ | None -> ()
      end
    end
  done;
  (* Keep only the best prefix; what gets undone is the rollback depth. *)
  let rolled_back = !moved - !best_count in
  ops.undo ~lo:!best_count ~hi:!moved;
  { gain = !best; moves = !moved; rolled_back }

let drive ~max_passes f =
  let passes = ref 0 in
  let moves = ref 0 in
  let improving = ref true in
  while !improving && !passes < max_passes do
    let p = f ~pass:(!passes + 1) in
    incr passes;
    moves := !moves + p.moves;
    if p.gain <= 0 then improving := false
  done;
  (!passes, !moves)
