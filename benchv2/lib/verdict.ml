(* The regression gate behind [compare OLD.json NEW.json]. *)

type t = Better | Worse | Within | Unresolved

let to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Within -> "within bound"
  | Unresolved -> "unresolved"

(* Relative change of [now] against [was]; 0 when both are 0. *)
let change ~was ~now =
  if was = now then 0.
  else if was = 0. then Float.copy_sign infinity now
  else (now -. was) /. Float.abs was

(* A metric whose run-to-run spread is wider than its bound cannot be
   judged against that bound. *)
let judge ~higher_is_better ~bound ~(was : Record.metric) ~(now : Record.metric) =
  if Float.max was.Record.spread now.Record.spread > bound then Unresolved
  else
    let c = change ~was:was.Record.value ~now:now.Record.value in
    let worsened = if higher_is_better then -.c else c in
    if worsened > bound then Worse else if worsened < -.bound then Better else Within

(* Why two runs cannot be compared, if they cannot: they must come from
   the same host, core count, job count, seed, run length and op list. *)
let incomparable (a : Record.t) (b : Record.t) =
  let m = a.Record.meta and n = b.Record.meta in
  let diffs =
    List.filter_map
      (fun (what, same) -> if same then None else Some what)
      [
        ("host", m.Record.host = n.Record.host);
        ("nproc", m.Record.nproc = n.Record.nproc);
        ("jobs", m.Record.jobs = n.Record.jobs);
        ("seed", m.Record.seed = n.Record.seed);
        ("seconds", m.Record.seconds = n.Record.seconds);
        ("trace", m.Record.trace = n.Record.trace);
        ("op_list", m.Record.op_list = n.Record.op_list);
      ]
  in
  if diffs = [] then None
  else
    Some
      (Printf.sprintf "%s: runs differ in %s" a.Record.workload
         (String.concat ", " diffs))

type row = {
  workload : string;
  metric : string;
  was : float;
  now : float;
  verdict : t;
}

(* The row for declared metric [d] of one workload's pair of summaries,
   when both report it and it has a bound. *)
let row (d : Record.declared) ((o : Record.t), (n : Record.t)) =
  let find (r : Record.t) =
    List.find_opt (fun m -> m.Record.name = d.Record.metric) r.Record.metrics
  in
  match (find o, find n, d.Record.bound) with
  | Some was, Some now, Some bound ->
      let higher_is_better = d.Record.higher_is_better in
      Some
        {
          workload = o.Record.workload;
          metric = d.Record.metric;
          was = was.Record.value;
          now = now.Record.value;
          verdict = judge ~higher_is_better ~bound ~was ~now;
        }
  | _ -> None

(* Several runs of one workload as one: each metric's median over the
   runs, with the widest of the runs' own spreads and the spread between
   the runs.  The host's drift between runs shows only in the latter. *)
let summarize (runs : Record.t list) =
  let first = List.hd runs in
  let summary (m : Record.metric) =
    let same =
      List.filter_map
        (fun (r : Record.t) ->
          List.find_opt
            (fun (x : Record.metric) -> x.Record.name = m.Record.name)
            r.Record.metrics)
        runs
    in
    let values = Array.of_list (List.map (fun x -> x.Record.value) same) in
    let own = List.fold_left (fun acc x -> Float.max acc x.Record.spread) 0. same in
    let between = if Array.length values > 1 then Stats.spread values else 0. in
    { m with Record.value = Stats.median values; spread = Float.max own between }
  in
  { first with Record.metrics = List.map summary first.Record.metrics }

(* Rows for every declared end-to-end metric of every workload run (in
   the same trace mode) present in both files, or the reason the files
   cannot be compared.  A file may hold several runs of a workload, as
   [run --out] adds to an existing file. *)
let table (spec : Record.spec) ~old_runs ~new_runs =
  let kind (r : Record.t) = (r.Record.workload, r.Record.meta.Record.trace) in
  let kinds =
    List.fold_left
      (fun acc r -> if List.mem (kind r) acc then acc else acc @ [ kind r ])
      [] old_runs
  in
  let of_kind runs k = List.filter (fun r -> kind r = k) runs in
  let groups =
    List.filter_map
      (fun k ->
        match of_kind new_runs k with
        | [] -> None
        | n -> Some (of_kind old_runs k, n))
      kinds
  in
  match
    List.find_map
      (fun (o, n) -> List.find_map (incomparable (List.hd o)) (List.tl o @ n))
      groups
  with
  | Some why -> Error why
  | None when groups = [] -> Error "no workload appears in both files"
  | None ->
      Ok
        (List.concat_map
           (fun (o, n) ->
             List.filter_map
               (fun d -> row d (summarize o, summarize n))
               spec.Record.end_to_end)
           groups)
