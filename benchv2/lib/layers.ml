(* Which layer each span's self time belongs to, plus readers for the
   metrics the program exports (the --metrics file of a CLI run, the live
   [stats] reply of serve).

   Every pipeline has the same three phases — coarsening, initial
   partitioning, refinement — so phase times are non-zero on every
   workload.  Modules that only some pipelines run (Match, induce, FM,
   Rounds, n-level uncontraction) are reported as shares of op time,
   which are 0 where the module does not run. *)

module Json = Mlpart_obs.Json

let phases = [ "coarsen.ms"; "initial.ms"; "refine.ms" ]

(* A span opens a phase for itself and every span below it. *)
let phase_of_span = function
  | "ml/coarsen" | "nlevel/contract" -> Some "coarsen.ms"
  | "ml/initial" -> Some "initial.ms"
  | "ml/refine" | "nlevel/uncontract" | "nlevel/refine" -> Some "refine.ms"
  | _ -> None

let modules =
  [ "match.pct"; "hypergraph.induce_pct"; "fm.pass_pct"; "rounds.pct";
    "nlevel.uncontract_pct"; "serve.request_self_pct" ]

let module_of_span = function
  | "coarsen/match" | "coarsen/round" -> Some "match.pct"
  | "coarsen/induce" -> Some "hypergraph.induce_pct"
  | "fm/pass" -> Some "fm.pass_pct"
  | "refine/round" -> Some "rounds.pct"
  | "nlevel/uncontract" -> Some "nlevel.uncontract_pct"
  | "serve/request" -> Some "serve.request_self_pct"
  | _ -> None

let add acc key v =
  let prev = Option.value (List.assoc_opt key acc) ~default:0. in
  (key, prev +. v) :: List.remove_assoc key acc

(* Self time in ms of every span of one tree, added into [acc] under its
   phase and under its module.  Spans outside any phase (serve/request's
   own work, spans this table does not know) count in no phase. *)
let rec add_tree ?phase acc node =
  let name = node.Spans.span.Spans.name in
  let phase = match phase_of_span name with Some p -> Some p | None -> phase in
  let self_ms = Spans.self_time node /. 1000. in
  let acc = match phase with Some p -> add acc p self_ms | None -> acc in
  let acc = match module_of_span name with Some m -> add acc m self_ms | None -> acc in
  List.fold_left (add_tree ?phase) acc node.Spans.children

(* n-level initial partitioning runs between [nlevel/contract] and
   [nlevel/uncontract] without a span of its own. *)
let initial_gap roots =
  Spans.gap ~after:"nlevel/contract" ~before:"nlevel/uncontract" roots /. 1000.

(* Per-op phase times, [other.ms] (op time outside every phase) and
   module shares, from per-op means of span self times in ms. *)
let breakdown ~wall_ms times =
  let get k = Option.value (List.assoc_opt k times) ~default:0. in
  let in_phases = List.fold_left (fun acc p -> acc +. get p) 0. phases in
  List.map (fun p -> (p, get p)) phases
  @ [ ("other.ms", wall_ms -. in_phases) ]
  @ List.map (fun m -> (m, 100. *. get m /. wall_ms)) modules

(* The program's counters that explain a layer's time as work done. *)
let counters =
  [
    ("match.rounds", "match.rounds_per_op");
    ("coarsen.levels", "coarsen.levels_per_op");
    ("fm.passes", "fm.passes_per_op");
    ("fm.moves", "fm.moves_per_op");
    ("rounds.moves", "rounds.moves_per_op");
    ("nlevel.contractions", "nlevel.contractions_per_op");
    ("nlevel.moves", "nlevel.moves_per_op");
    ("serve.cache.evictions", "serve.cache.evictions_per_op");
  ]

(* [metrics] is a Metrics registry export: the --metrics file itself, or
   the "metrics" member of a serve [stats] payload. *)
let counter metrics name =
  Option.bind (Json.member "counters" metrics) (Json.int_member name)
  |> Option.value ~default:0

(* (count, sum) of histogram [name]; (0, 0) when absent. *)
let histogram metrics name =
  match Option.bind (Json.member "histograms" metrics) (Json.member name) with
  | None -> (0, 0)
  | Some h ->
      ( Option.value (Json.int_member "count" h) ~default:0,
        Option.value (Json.int_member "sum" h) ~default:0 )

(* Mean of histogram [name] over the observations made between two
   snapshots of the same registry. *)
let histogram_mean ~before ~after name =
  let n0, s0 = histogram before name and n1, s1 = histogram after name in
  if n1 = n0 then 0. else float_of_int (s1 - s0) /. float_of_int (n1 - n0)

(* The registry inside a serve [stats] reply line. *)
let stats_metrics payload =
  Option.bind (Json.member "stats" payload) (Json.member "metrics")
  |> Option.value ~default:(Json.Obj [])
