let best ?pool ?deadline ~starts ~cut f rng =
  let starts = Stdlib.max 1 starts in
  let rngs = Array.init starts (fun _ -> Rng.split rng) in
  let pool = match pool with Some p when Pool.size p > 1 -> Some p | _ -> None in
  (* Without a deadline nothing is polled, so all starts form one wave. *)
  let wave =
    match (deadline, pool) with
    | None, _ -> starts
    | Some _, Some p -> Pool.size p
    | Some _, None -> 1
  in
  let expired () =
    match deadline with Some dl -> Deadline.check dl | None -> false
  in
  let best = ref None in
  let completed = ref 0 in
  while !completed < starts && (!completed = 0 || not (expired ())) do
    let n = Stdlib.min wave (starts - !completed) in
    let batch = Array.sub rngs !completed n in
    let results =
      match pool with
      | Some p when n > 1 -> Pool.map p f batch
      | Some _ | None -> Array.map f batch
    in
    Array.iter
      (fun r ->
        match !best with
        | Some b when cut b <= cut r -> ()
        | Some _ | None -> best := Some r)
      results;
    completed := !completed + n
  done;
  (Option.get !best, !completed)
