module H = Mlpart_hypergraph.Hypergraph

(* Candidates per side per step: classic KL evaluates all pairs, twelve
   per side keep a step at 144 exact swap gains. *)
let beam = 12

type result = { side : int array; cut : int; passes : int }

let net_threshold = Refine_core.net_threshold

let run ?init rng h =
  let n = H.num_modules h in
  let bp =
    match init with
    | Some side -> Bipartition.create h side
    | None -> Bipartition.random rng h
  in
  let gain = Array.make n 0 in
  let locked = Array.make n false in
  let recompute_gain v = gain.(v) <- Bipartition.gain ~net_threshold bp v in
  (* After a module moves, only its nets' pins see gain changes. *)
  let refresh_neighbours v =
    H.iter_nets_of h v (fun e ->
        H.iter_pins_of h e (fun u -> if not locked.(u) then recompute_gain u))
  in
  let top_candidates side_wanted =
    let best = Array.make beam (-1) in
    for v = 0 to n - 1 do
      if (not locked.(v)) && Bipartition.side bp v = side_wanted then begin
        (* insertion into a fixed-size descending-gain beam *)
        let rec place i candidate =
          if i < beam then
            if best.(i) < 0 || gain.(candidate) > gain.(best.(i)) then begin
              let displaced = best.(i) in
              best.(i) <- candidate;
              if displaced >= 0 then place (i + 1) displaced
            end
            else place (i + 1) candidate
        in
        place 0 v
      end
    done;
    Array.to_list best |> List.filter (fun v -> v >= 0)
  in
  (* A candidate is the swap (a * n) + b of a side-0 module a and a side-1
     module b.  Select evaluates exact pairwise gains (move a tentatively,
     read b's gain) and leaves the winner's gain for commit. *)
  let chosen_gain = ref 0 in
  let select () =
    let cand0 = top_candidates 0 and cand1 = top_candidates 1 in
    if cand0 = [] || cand1 = [] then -1
    else begin
      let best = ref (-1) and best_g = ref min_int in
      List.iter
        (fun a ->
          let ga = gain.(a) in
          Bipartition.move bp a;
          List.iter
            (fun b ->
              let total = ga + Bipartition.gain ~net_threshold bp b in
              if total > !best_g then begin
                best := (a * n) + b;
                best_g := total
              end)
            cand1;
          Bipartition.move bp a)
        cand0;
      chosen_gain := !best_g;
      !best
    end
  in
  let swap c =
    Bipartition.move bp (c / n);
    Bipartition.move bp (c mod n)
  in
  let commit c =
    swap c;
    locked.(c / n) <- true;
    locked.(c mod n) <- true;
    refresh_neighbours (c / n);
    refresh_neighbours (c mod n);
    !chosen_gain
  in
  let order = Array.make n 0 in
  let ops =
    {
      Refine_core.select;
      commit;
      undo =
        (fun ~lo ~hi ->
          for i = hi - 1 downto lo do
            swap order.(i)
          done);
      rebuild = (fun ~first_bad:_ ~kept:_ -> ());
    }
  in
  let passes, _ =
    Refine_core.drive ~max_passes:max_int (fun ~pass:_ ->
        Array.fill locked 0 n false;
        for v = 0 to n - 1 do
          recompute_gain v
        done;
        Refine_core.run_pass ~order ops)
  in
  { side = Bipartition.side_array bp; cut = Bipartition.cut bp; passes }
