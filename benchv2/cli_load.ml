(* The CLI workloads (ml2-small, ml2-large, kway): one mlpart process per
   op, run one at a time. *)

module Hgr_io = Mlpart_hypergraph.Hgr_io
open Benchv2
open Harness

let inputs env w =
  generate_inputs env
    (List.map (fun c -> (c, Workload.circuit_seed)) (Workload.circuits w))

(* One op, timed from process creation to reaping; with [obs], the run
   also exports its trace and metrics to those files.  [before] is the
   reference time measured just before; returns the sample and the
   reference time measured just after. *)
let op env inputs w ?obs i before =
  let op = Workload.cli_op w ~seed:env.seed i in
  let file, _, h = List.assoc op.Workload.circuit inputs in
  let parts = env.work // "parts" and out = env.work // "op.out" in
  let err = env.work // "op.err" in
  if Sys.file_exists parts then Sys.remove parts;
  let obs_args =
    match obs with
    | Some (trace, metrics) -> [ "--trace"; trace; "--metrics"; metrics ]
    | None -> []
  in
  let r =
    Spawner.run env.spawner mlpart
      (Workload.cli_args op ~file ~parts @ obs_args)
      ~stdout:out ~stderr:err
  in
  let after = Host.reference_ms () in
  let cut, balanced =
    if r.Proc.code <> 0 then
      ( Error (Printf.sprintf "exit %d: %s" r.Proc.code (first_line (read err))),
        true )
    else
      match
        ( Verify.printed_cut (read out),
          if Sys.file_exists parts then Verify.parse_parts (read parts)
          else None )
      with
      | Some reported, Some side -> judge w h ~k:op.Workload.k ~reported side
      | None, _ -> (Error "no cut printed", true)
      | _, None -> (Error "missing or unreadable parts file", true)
  in
  ( {
      index = i;
      ms = r.Proc.ms;
      held_ms = r.Proc.ms;
      host = Host.factor ~before ~after;
      rss_kb = r.Proc.rss_kb;
      cut =
        Result.map_error
          (Printf.sprintf "op %d (%s): %s" i op.Workload.circuit)
          cut;
      balanced;
    },
    after )

let run env w =
  let inputs, setup_s = repeat_setup (fun ~last:_ -> inputs env w) in
  let op_list = Workload.op_list w in
  let samples = window ~seconds:env.seconds ~min_ops:op_list (op env inputs w) in
  (samples, end_to_end ~op_list ~setup_s samples)

(* Traced rerun: each op runs untraced and then traced, so the two times
   pair up for the overhead and the two cuts must agree. *)
let traced env w =
  let inputs = inputs env w in
  let trace = env.work // "trace.json" and mfile = env.work // "metrics.json" in
  let pairs =
    window ~seconds:env.seconds ~min_ops:(Workload.op_list w / 4) (fun i before ->
        let plain, between = op env inputs w i before in
        let traced, after = op env inputs w ~obs:(trace, mfile) i between in
        let spans, dropped = Spans.of_json (parse_json trace) in
        ( ( (plain, same_cut ~plain traced),
            (Spans.forest spans, dropped, parse_json mfile),
            i ),
          after ))
  in
  let n = float_of_int (List.length pairs) in
  let per_op f = List.fold_left (fun acc p -> acc +. f p) 0. pairs /. n in
  let times =
    List.fold_left
      (fun acc (_, (roots, _, _), _) ->
        let acc = List.fold_left (fun acc r -> Layers.add_tree acc r) acc roots in
        Layers.add acc "initial.ms" (Layers.initial_gap roots))
      [] pairs
    |> List.map (fun (l, v) -> (l, v /. n))
  in
  let parse_ms =
    List.map
      (fun (c, (_, text, _)) ->
        (c, time_ms (fun () -> Hgr_io.parse_string ~mode:Hgr_io.Strict text)))
      inputs
  in
  let circuit i = (Workload.cli_op w ~seed:env.seed i).Workload.circuit in
  let wall_plain = per_op (fun ((p, _), _, _) -> p.ms) in
  let wall_traced = per_op (fun ((_, t), _, _) -> t.ms) in
  let values =
    Layers.breakdown ~wall_ms:wall_traced times
    @ [
        ("hgr_io.parse_ms", per_op (fun (_, _, i) -> List.assoc (circuit i) parse_ms));
        ("obs.trace_overhead_pct", 100. *. (wall_traced -. wall_plain) /. wall_plain);
        ("obs.trace_dropped", n *. per_op (fun (_, (_, d, _), _) -> float_of_int d));
        ( "obs.span_coverage_pct",
          100. *. per_op (fun (_, (roots, _, _), _) -> roots_ms roots) /. wall_traced
        );
      ]
    @ List.map
        (fun (counter, name) ->
          ( name,
            per_op (fun (_, (_, _, m), _) -> float_of_int (Layers.counter m counter))
          ))
        Layers.counters
  in
  (List.concat_map (fun ((p, t), _, _) -> [ p; t ]) pairs, values)
