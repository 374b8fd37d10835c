(* Answer checks: every op's partition is recounted here, independently of
   the engines, and held to the engines' own balance bounds. *)

module H = Mlpart_hypergraph.Hypergraph
module Bipartition = Mlpart_partition.Bipartition
module Kpartition = Mlpart_partition.Kpartition

let tolerance = 0.1

(* A parts file: one part id per line. *)
let parse_parts text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l -> int_of_string_opt (String.trim l))
  |> List.fold_left
       (fun acc p ->
         match (acc, p) with
         | Some l, Some p -> Some (p :: l)
         | _ -> None)
       (Some [])
  |> Option.map (fun l -> Array.of_list (List.rev l))

(* The cut the CLI prints: the integer after the word "cut". *)
let printed_cut stdout =
  let words =
    String.split_on_char ' ' (String.trim stdout) |> List.filter (( <> ) "")
  in
  let rec find = function
    | "cut" :: n :: _ -> int_of_string_opt n
    | _ :: rest -> find rest
    | [] -> None
  in
  find words

let recount h side =
  let cut = ref 0 in
  for e = 0 to H.num_nets h - 1 do
    let pins = H.pins_of h e in
    if Array.exists (fun v -> side.(v) <> side.(pins.(0))) pins then
      cut := !cut + H.net_weight h e
  done;
  !cut

let bounds h ~k =
  if k = 2 then
    let b = Bipartition.bounds ~tolerance h in
    (b.Bipartition.lo, b.Bipartition.hi)
  else
    let b = Kpartition.bounds ~tolerance h ~k in
    (b.Kpartition.lo, b.Kpartition.hi)

(* [Ok cut] when [side] assigns every module of [h] a part in 0..k-1 and
   the recounted cut equals [reported]. *)
let check h ~k ~reported side =
  let n = H.num_modules h in
  if Array.length side <> n then
    Error (Printf.sprintf "%d parts for %d modules" (Array.length side) n)
  else
    match Array.find_opt (fun p -> p < 0 || p >= k) side with
    | Some p -> Error (Printf.sprintf "part %d outside 0..%d" p (k - 1))
    | None ->
        let cut = recount h side in
        if cut <> reported then
          Error (Printf.sprintf "reported cut %d, recount %d" reported cut)
        else Ok cut

(* Why the part areas of a checked [side] break the balance bounds, if
   they do. *)
let imbalance h ~k side =
  let areas = Array.make k 0 in
  Array.iteri (fun v p -> areas.(p) <- areas.(p) + H.area h v) side;
  let lo, hi = bounds h ~k in
  if Array.exists (fun a -> a < lo || a > hi) areas then
    Some
      (Printf.sprintf "part areas %s outside [%d, %d]"
         (String.concat "/" (Array.to_list (Array.map string_of_int areas)))
         lo hi)
  else None
