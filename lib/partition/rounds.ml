module H = Mlpart_hypergraph.Hypergraph
module Pool = Mlpart_util.Pool
module Heapsort = Mlpart_util.Heapsort
module Trace = Mlpart_obs.Trace
module Metrics = Mlpart_obs.Metrics

let m_rounds = Metrics.counter "rounds.rounds"
let m_moves = Metrics.counter "rounds.moves"

let h_round_moves =
  Metrics.histogram "rounds.moves_per_round"
    ~buckets:[| 1; 4; 16; 64; 256; 1024; 4096 |]

type result = { moved : int; rounds : int; gain : int }

let run ?pool ?fixed ?(net_threshold = max_int) ?(max_rounds = max_int)
    ~bounds bp =
  let h = Bipartition.hypergraph bp in
  let n = H.num_modules h in
  let m = H.num_nets h in
  let noff = H.net_offsets_store h
  and wts = H.net_weights_store h
  and moff = H.mod_offsets_store h
  and mnets = H.mod_nets_store h
  and areas = H.areas_store h in
  let has_fixed = Option.is_some fixed in
  let fixed = match fixed with Some f -> f | None -> [||] in
  (* The partition is the frozen snapshot: scoring reads its sides and pin
     counts, and only the sequential commit writes them. *)
  let side = Bipartition.side_store bp
  and pins_on = Bipartition.pins_on_store bp in
  (* A move is admissible if the new side-0 area is in bounds, or strictly
     closer to the bounds interval than before (lets rounds help repair a
     projected solution whose slack shrank at this level). *)
  let distance a0 = abs (Bipartition.excess bounds a0) in
  let gain = Array.make n 0 in
  (* FM gain of [v] from the frozen snapshot, module-centric so ranges of
     modules are scored in parallel without write contention. *)
  let gain_range ~slot:_ ~lo ~hi =
    for v = lo to hi - 1 do
      if has_fixed && fixed.(v) >= 0 then gain.(v) <- min_int
      else begin
        let s = side.(v) in
        let g = ref 0 in
        for i = moff.(v) to moff.(v + 1) - 1 do
          let e = mnets.(i) in
          if noff.(e + 1) - noff.(e) <= net_threshold then begin
            let w = wts.(e) in
            if pins_on.((2 * e) + s) = 1 then g := !g + w;
            if pins_on.((2 * e) + (1 - s)) = 0 then g := !g - w
          end
        done;
        gain.(v) <- !g
      end
    done
  in
  (* Net conflict marking: accepted moves within a round share no net, so
     every committed gain is exact against the snapshot and the cut drops
     by exactly the sum of accepted gains. *)
  let net_epoch = Array.make m 0 in
  let epoch = ref 0 in
  (* Candidates packed as [(-gain) lsl shift lor v]: ascending packed order
     is (gain desc, index asc), a total order independent of chunk
     scheduling, so any correct sort gives the same commit order. *)
  let cands = Array.make n 0 in
  let shift = Heapsort.shift_for n in
  let mask = (1 lsl shift) - 1 in
  let moved = ref 0 in
  let total_gain = ref 0 in
  let rounds = ref 0 in
  let continue = ref (n > 0 && m > 0 && max_rounds > 0) in
  while !continue do
    incr rounds;
    let t0 = Trace.start () in
    (match pool with
    | Some p when Pool.size p > 1 -> Pool.parallel_chunks p ~n ~body:gain_range
    | _ -> gain_range ~slot:0 ~lo:0 ~hi:n);
    let n_cand = ref 0 in
    for v = 0 to n - 1 do
      let g = gain.(v) in
      if g > 0 then begin
        if not (Heapsort.fits ~shift g) then
          invalid_arg "Rounds.run: gain too large to pack above module ids";
        cands.(!n_cand) <- ((-g) lsl shift) lor v;
        incr n_cand
      end
    done;
    Heapsort.sort ~shift:0 ~len:!n_cand cands;
    incr epoch;
    let ep = !epoch in
    let committed = ref 0 in
    for c = 0 to !n_cand - 1 do
      let v = cands.(c) land mask in
      let first = moff.(v) and stop = moff.(v + 1) in
      let i = ref first in
      while !i < stop && net_epoch.(mnets.(!i)) <> ep do
        incr i
      done;
      if !i = stop then begin
        let a0 = Bipartition.area_of_side bp 0 in
        let a0' = if side.(v) = 0 then a0 - areas.(v) else a0 + areas.(v) in
        if distance a0' = 0 || distance a0' < distance a0 then begin
          for i = first to stop - 1 do
            net_epoch.(mnets.(i)) <- ep
          done;
          Bipartition.move bp v;
          total_gain := !total_gain + gain.(v);
          incr committed
        end
      end
    done;
    moved := !moved + !committed;
    Metrics.add m_rounds 1;
    Metrics.observe h_round_moves !committed;
    if Trace.enabled () then
      Trace.complete ~cat:"refine"
        ~args:
          [
            ("round", Trace.Int !rounds);
            ("candidates", Trace.Int !n_cand);
            ("committed", Trace.Int !committed);
          ]
        "refine/round" t0;
    continue := !committed > 0 && !rounds < max_rounds
  done;
  Metrics.add m_moves !moved;
  { moved = !moved; rounds = !rounds; gain = !total_gain }
