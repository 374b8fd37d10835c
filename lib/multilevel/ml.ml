module H = Mlpart_hypergraph.Hypergraph
module Pool = Mlpart_util.Pool
module Multistart = Mlpart_util.Multistart
module Trace = Mlpart_obs.Trace
module Metrics = Mlpart_obs.Metrics
module Fm = Mlpart_partition.Fm
module Rounds = Mlpart_partition.Rounds
module Bp = Mlpart_partition.Bipartition

let log_src = Logs.Src.create "mlpart.ml" ~doc:"multilevel driver traces"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_runs = Metrics.counter "ml.runs"
let m_vcycles = Metrics.counter "ml.vcycles"

type config = {
  threshold : int;
  ratio : float;
  match_net_size : int;
  merge_duplicates : bool;
  engine : Fm.config;
  max_levels : int;
  coarsest_starts : int;
  rounds : int;
  rounds_min_modules : int;
}

let mlf =
  {
    threshold = 35;
    ratio = 1.0;
    match_net_size = 10;
    merge_duplicates = false;
    engine = Fm.default;
    max_levels = 64;
    coarsest_starts = 1;
    rounds = 2;
    rounds_min_modules = 128;
  }

let mlc = { mlf with engine = Fm.clip }
let with_ratio config ratio = { config with ratio }

type result = { side : int array; cut : int; levels : int; coarsest_modules : int }

let build_hierarchy config ?fixed ?pair_ok ?pool rng h =
  Hierarchy.build ~threshold:config.threshold ~ratio:config.ratio
    ~match_net_size:config.match_net_size
    ~merge_duplicates:config.merge_duplicates ~max_levels:config.max_levels
    ?fixed ?pair_ok ?pool rng h

let coarsen ?(config = mlf) rng h =
  let hierarchy = build_hierarchy config rng h in
  ( List.map
      (fun { Hierarchy.netlist; cluster_of; fixed = _ } -> (netlist, cluster_of))
      hierarchy.Hierarchy.levels,
    hierarchy.Hierarchy.coarsest )

let project cluster_of coarse_side =
  Array.map (fun c -> coarse_side.(c)) cluster_of

(* Partition the coarsest netlist (steps 6 of Figure 2), optionally from an
   initial solution, with multi-start as the §V extension.  Sequential
   starts share [arena]; pooled starts let each Fm.run create its own
   (arenas are domain-local), which is bit-identical anyway. *)
let partition_coarsest config ?init ?fixed ?pool ?arena rng coarsest =
  let starts = Stdlib.max 1 config.coarsest_starts in
  if starts = 1 then Fm.run ~config:config.engine ?init ?fixed ?arena rng coarsest
  else begin
    let arena =
      match pool with Some p when Pool.size p > 1 -> None | Some _ | None -> arena
    in
    fst
      (Multistart.best ?pool ~starts
         ~cut:(fun r -> r.Fm.cut)
         (fun rng -> Fm.run ~config:config.engine ?init ?fixed ?arena rng coarsest)
         rng)
  end

(* Uncoarsening: project and refine level by level (steps 7-9).  One arena
   serves every level: engine state is allocated once, at the finest
   level's size, instead of rebuilt per level.  Each level gets a
   [ml/refine_level] span — the single timing source the bench harness's
   per-phase breakdown is derived from. *)
let refine_up config ?pool ?arena rng hierarchy initial_side =
  List.fold_left
    (fun coarse_side { Hierarchy.netlist; cluster_of; fixed } ->
      let t0 = Trace.start () in
      let projected = project cluster_of coarse_side in
      (* Round-based pre-pass at the larger levels: parallel positive-gain
         sweeps shrink the cut before the exact sequential FM polish.  It
         runs whether or not a pool is present — the committed move
         sequence is a pure function of the input — so the result is
         bit-identical for every [--jobs]. *)
      if config.rounds > 0 && H.num_modules netlist >= config.rounds_min_modules
      then begin
        let bounds =
          (if config.engine.Fm.wide_balance then Bp.wide_bounds else Bp.bounds)
            ~tolerance:config.engine.Fm.tolerance netlist
        in
        ignore
          (Rounds.run ?pool ?fixed ~net_threshold:config.engine.Fm.net_threshold
             ~max_rounds:config.rounds ~bounds netlist projected)
      end;
      let refined =
        Fm.run ~config:config.engine ~init:projected ?fixed ?arena rng netlist
      in
      if Trace.enabled () then
        Trace.complete ~cat:"ml"
          ~args:
            [
              ("modules", Trace.Int (H.num_modules netlist));
              ("cut", Trace.Int refined.Fm.cut);
              ("passes", Trace.Int refined.Fm.passes);
              ("moves", Trace.Int refined.Fm.moves);
            ]
          "ml/refine_level" t0;
      Log.debug (fun m ->
          m "refined level |V|=%d: projected cut %d -> %d (%d passes)"
            (H.num_modules netlist)
            (Fm.cut_of netlist projected)
            refined.Fm.cut refined.Fm.passes);
      refined.Fm.side)
    initial_side
    (List.rev hierarchy.Hierarchy.levels)

(* The coarsening half of {!run}, exposed so the serve-mode hierarchy
   cache can build (and reuse) hierarchies independently of the
   refinement seed.  The [ml/coarsen] span lives here — a run that skips
   this function (cache hit) genuinely skips the phase, which is what the
   span-based cache tests assert. *)
let hierarchy ?(config = mlf) ?fixed ?pool rng h =
  let hierarchy =
    Trace.span ~cat:"ml" "ml/coarsen" (fun () ->
        build_hierarchy config ?fixed ?pool rng h)
  in
  Log.debug (fun m ->
      m "%s: %d levels, coarsest |V|=%d (T=%d, R=%.2f)" (H.name h)
        (List.length hierarchy.Hierarchy.levels)
        (H.num_modules hierarchy.Hierarchy.coarsest)
        config.threshold config.ratio);
  hierarchy

(* Initial partition + uncoarsening over a prebuilt hierarchy — the other
   half of {!run}, and the entry point a hierarchy cache hit jumps to.
   Reads only from the hierarchy (fixed assignments travel inside it), so
   one hierarchy value can serve many (seed, tolerance) queries. *)
let run_hierarchy ?(config = mlf) ?pool ?arena rng h hierarchy =
  let arena = match arena with Some a -> a | None -> Fm.create_arena ~h () in
  let initial =
    Trace.span ~cat:"ml" "ml/initial" (fun () ->
        partition_coarsest config ?fixed:hierarchy.Hierarchy.coarsest_fixed
          ?pool ~arena rng hierarchy.Hierarchy.coarsest)
  in
  let side =
    Trace.span ~cat:"ml" "ml/refine" (fun () ->
        refine_up config ?pool ~arena rng hierarchy initial.Fm.side)
  in
  Metrics.incr m_runs;
  {
    side;
    cut = Fm.cut_of h side;
    levels = List.length hierarchy.Hierarchy.levels;
    coarsest_modules = H.num_modules hierarchy.Hierarchy.coarsest;
  }

let run ?(config = mlf) ?fixed ?pool ?arena rng h =
  let arena = match arena with Some a -> a | None -> Fm.create_arena ~h () in
  let hier = hierarchy ~config ?fixed ?pool rng h in
  run_hierarchy ~config ?pool ~arena rng h hier

(* One solution-preserving V-cycle: coarsen with matching restricted to
   same-side pairs (every cluster is side-pure, so the solution projects
   without loss), refine the projected solution at each level on the way
   back up. *)
let vcycle config ?fixed ?pool ?arena rng h side =
  let pair_ok v w = side.(v) = side.(w) in
  let hierarchy =
    Trace.span ~cat:"ml" "ml/coarsen" (fun () ->
        build_hierarchy config ?fixed ~pair_ok ?pool rng h)
  in
  (* Restrict the side assignment down the hierarchy. *)
  let coarsest_side, _ =
    List.fold_left
      (fun (fine_side, _) { Hierarchy.cluster_of; _ } ->
        let k =
          Array.fold_left
            (fun acc c -> if c > acc then c else acc)
            (-1) cluster_of
          + 1
        in
        let coarse = Array.make k 0 in
        Array.iteri (fun v c -> coarse.(c) <- fine_side.(v)) cluster_of;
        (coarse, k))
      (side, H.num_modules h)
      hierarchy.Hierarchy.levels
  in
  let initial =
    Trace.span ~cat:"ml" "ml/initial" (fun () ->
        Fm.run ~config:config.engine ~init:coarsest_side
          ?fixed:hierarchy.Hierarchy.coarsest_fixed ?arena rng
          hierarchy.Hierarchy.coarsest)
  in
  refine_up config ?pool ?arena rng hierarchy initial.Fm.side

let run_vcycles ?(config = mlf) ?fixed ?pool ?arena ~cycles rng h =
  if cycles < 1 then invalid_arg "Ml.run_vcycles: cycles < 1";
  let arena = match arena with Some a -> a | None -> Fm.create_arena ~h () in
  let first = run ~config ?fixed ?pool ~arena rng h in
  let side = ref first.side in
  let cut = ref first.cut in
  for cycle = 2 to cycles do
    let t0 = Trace.start () in
    let refined = vcycle config ?fixed ?pool ~arena rng h !side in
    let refined_cut = Fm.cut_of h refined in
    if Trace.enabled () then
      Trace.complete ~cat:"ml"
        ~args:[ ("cycle", Trace.Int cycle); ("cut", Trace.Int refined_cut) ]
        "ml/vcycle" t0;
    Metrics.incr m_vcycles;
    if refined_cut <= !cut then begin
      side := refined;
      cut := refined_cut
    end
  done;
  { first with side = !side; cut = !cut }
