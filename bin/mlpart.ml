(* mlpart — command-line multilevel circuit partitioner.

   Subcommands:
     bipartition  2-way partition a .hgr file or generated benchmark
     quadrisect   4-way partition (multilevel or GORDIAN-style analytic)
     place        top-down global placement by recursive quadrisection
     generate     emit a synthetic benchmark in .hgr format
     evaluate     score a saved part assignment against a netlist
     info         print hypergraph statistics
     selfcheck    run the property-based verification suite
     serve        fault-tolerant partitioning daemon (NDJSON over a socket)
     client       submit one request to a running daemon

   Every subcommand runs inside an error boundary: library failures
   surface as one structured diagnostic line per issue on stderr and a
   documented exit code — 2 usage, 3 parse/I-O error, 4 invariant
   violation, 5 timeout, 6 admission rejection — never an OCaml
   backtrace. *)

module H = Mlpart_hypergraph.Hypergraph
module Hgr_io = Mlpart_hypergraph.Hgr_io
module Netd_io = Mlpart_hypergraph.Netd_io
module Rng = Mlpart_util.Rng
module Pool = Mlpart_util.Pool
module Diag = Mlpart_util.Diag
module Deadline = Mlpart_util.Deadline
module Multistart = Mlpart_util.Multistart
module Algos = Mlpart_experiments.Algos
module Trace = Mlpart_obs.Trace
module Metrics = Mlpart_obs.Metrics
module Json = Mlpart_obs.Json
module Protocol = Mlpart_serve.Protocol
module Engine = Mlpart_serve.Engine
module Server = Mlpart_serve.Server
module Faults = Mlpart_serve.Faults
open Cmdliner

let print_diag d =
  (* every printed diagnostic also counts as diag.<severity>.<code> in the
     --metrics export *)
  Metrics.record_diag d;
  Printf.eprintf "%s\n" (Diag.to_string d)

(* The error boundary wrapped around every subcommand body.  [Cmd.eval]
   only sees exit 0; failures leave through [exit] after printing
   structured diagnostics. *)
let boundary f =
  try f () with
  | Diag.Mlpart_error diags ->
      List.iter print_diag diags;
      exit (Diag.exit_code diags)
  | Sys_error msg ->
      print_diag (Diag.error ~source:"" Diag.Io_error "%s" msg);
      exit 3
  | Invalid_argument msg ->
      print_diag (Diag.error ~source:"" Diag.Invariant "%s" msg);
      exit 4

(* The exit codes every subcommand documents; cmdliner's own usage
   errors (124) are folded into 2 where [main] is evaluated. *)
let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 2 ~doc:"on command-line usage errors.";
    Cmd.Exit.info 3 ~doc:"on input parse or I/O errors.";
    Cmd.Exit.info 4 ~doc:"on hypergraph invariant violations.";
    Cmd.Exit.info 5
      ~doc:"when --timeout expired (best-so-far result was still written).";
    Cmd.Exit.info 6
      ~doc:"when the serve daemon rejected the request (admission \
            control); honour retry_after_ms and resubmit.";
  ]

let usage_fail fmt =
  Printf.ksprintf
    (fun message ->
      print_diag (Diag.error ~source:"" Diag.Usage "%s" message);
      exit 2)
    fmt

(* Timeout exit path: the caller has already printed/saved a valid
   best-so-far result; flag it and exit 5. *)
let finish_timed_out deadline what =
  match deadline with
  | Some dl when Deadline.expired dl ->
      print_diag (Diag.warning ~source:"" Diag.Timeout "%s" what);
      exit 5
  | Some _ | None -> ()

(* Input is either a netlist path (.hgr, or .net/.netD with a sibling
   .are) or "bench:<circuit>" for a generated Table I stand-in.  Lenient
   parses print their warnings to stderr as they are found; strict parses
   fail through the boundary. *)
let load_hypergraph ?(lenient = false) input seed =
  let mode = if lenient then Hgr_io.Lenient else Hgr_io.Strict in
  match String.index_opt input ':' with
  | Some i when String.sub input 0 i = "bench" ->
      let name = String.sub input (i + 1) (String.length input - i - 1) in
      (match Mlpart_gen.Suite.find name with
      | spec -> Mlpart_gen.Suite.instantiate ~seed spec
      | exception Not_found ->
          usage_fail "unknown benchmark %S; known: %s" name
            (String.concat ", "
               (List.map
                  (fun s -> s.Mlpart_gen.Suite.circuit)
                  Mlpart_gen.Suite.all)))
  | Some _ | None -> (
      match Netd_io.parse_path ~mode input with
      | Ok { Hgr_io.hypergraph; warnings } ->
          List.iter print_diag warnings;
          hypergraph
      | Error diags -> raise (Diag.Mlpart_error diags))

let input_arg =
  let doc = "Input netlist: a .hgr file, an ACM/SIGDA .net/.netD file (a \
             sibling .are is picked up automatically), or bench:NAME for a \
             generated stand-in of a Table I circuit (e.g. bench:primary1). \
             $(b,--seed) also seeds the stand-in's generator, so a \
             bench:NAME input differs from seed to seed; the serve \
             daemon's $(b,--bench) always uses generator seed 1." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT" ~doc)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let runs_arg =
  Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N" ~doc:"Independent runs; the best result is reported.")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Domains used for parallelism.  With --runs > 1, \
                 independent runs fan out across domains; with a single \
                 run, the ML pipeline itself parallelizes (match rating, \
                 coarse CSR construction, round-based refinement sweeps) \
                 using synchronous rounds with deterministic commit \
                 ordering.  Either way the reported cut and assignment are \
                 bit-identical for any job count.")

let lenient_arg =
  Arg.(value & flag
       & info [ "lenient" ]
           ~doc:"Recover from degenerate input (duplicate or out-of-range \
                 pins, single-pin nets, short weight sections, truncation) \
                 instead of failing: each repair is reported as a \
                 warning[...] line on stderr and the repaired netlist is \
                 used.")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout" ] ~docv:"SEC"
           ~doc:"Cooperative wall-clock budget.  Checked between \
                 independent runs (and inside placement, between regions); \
                 on expiry the best result found so far is still printed \
                 and saved, flagged with a warning[timeout] line, and the \
                 exit code is 5.")

let deadline_of = Option.map (fun seconds -> Deadline.make ~seconds)

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a span timeline of the run and write it to $(docv) \
                 as Chrome trace-event JSON on exit (open in \
                 chrome://tracing or Perfetto).")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Collect pipeline counters and histograms and write them to \
                 $(docv) as JSON on exit.")

(* Exports run from [at_exit], so the files are written on every exit
   path — success, error boundaries, and the --timeout exit-5 shortcut. *)
let obs_setup trace metrics =
  (match trace with
  | None -> ()
  | Some path ->
      Trace.enable ();
      at_exit (fun () -> Trace.export_to_file path));
  match metrics with
  | None -> ()
  | Some path ->
      Metrics.enable ();
      at_exit (fun () -> Metrics.export_to_file path)

let ratio_arg =
  Arg.(value & opt float 0.5
       & info [ "r"; "ratio" ] ~docv:"R" ~doc:"Matching ratio in (0,1]; smaller = slower coarsening, more levels.")

let threshold_arg =
  Arg.(value & opt int 35
       & info [ "t"; "threshold" ] ~docv:"T" ~doc:"Coarsening stops below this module count.")

let tolerance_arg =
  Arg.(value & opt float 0.1
       & info [ "tolerance" ] ~docv:"R" ~doc:"Balance tolerance r (paper uses 0.1).")

(* [--engine] takes one of [names], each an entry of the engine registry
   ([Algos.find]). *)
let engine_arg ~names ~default ~doc =
  let parse s =
    if List.mem s names then Ok s
    else Error (`Msg (Printf.sprintf "unknown engine %S" s))
  in
  Arg.(value & opt (conv (parse, Format.pp_print_string)) default
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

let out_arg doc =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let write_assignment out side =
  match out with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Array.iter (fun s -> Printf.fprintf oc "%d\n" s) side)

(* The partitioning subcommands share one path: load the netlist, run the
   registry engine as the best of [runs] seeded starts, print, write the
   assignment, and flag an expired --timeout. *)
let partition ~input ~seed ~runs ~jobs ~tolerance ~lenient ~timeout ~out ~k
    (engine : Algos.t) print =
  let h = load_hypergraph ~lenient input seed in
  if not (Algos.accepts engine k) then
    usage_fail "--engine %s needs %s (got %d)" engine.Algos.name
      (Algos.arity_doc engine.Algos.arity) k;
  let deadline = deadline_of timeout in
  (* A single run can't fan out across runs, so hand the domains to the
     run itself; the ML pipeline's synchronous rounds keep the result
     identical to --jobs 1. *)
  let intra_pool =
    if runs <= 1 && jobs > 1 then Some (Pool.get ~jobs) else None
  in
  let start rng = engine.Algos.run ?pool:intra_pool ~tolerance rng h ~k in
  let best pool =
    Multistart.best ?pool ?deadline ~starts:runs ~cut:snd start
      (Rng.create seed)
  in
  let (side, cut), completed =
    if runs > 1 && jobs > 1 then
      Pool.with_pool ~jobs:(Stdlib.min jobs runs) (fun pool -> best (Some pool))
    else best None
  in
  print h side cut;
  write_assignment out side;
  finish_timed_out deadline
    (Printf.sprintf "timed out after %d of %d run(s); best-so-far reported"
       completed (Stdlib.max 1 runs))

let bipartition_cmd =
  let run input seed runs jobs ratio threshold tolerance engine out lenient
      timeout trace metrics =
    obs_setup trace metrics;
    boundary @@ fun () ->
    partition ~input ~seed ~runs ~jobs ~tolerance ~lenient ~timeout ~out ~k:2
      (Option.get (Algos.find ~ratio ~threshold engine))
      (fun h side cut ->
        let areas = [| 0; 0 |] in
        Array.iteri (fun v s -> areas.(s) <- areas.(s) + H.area h v) side;
        Printf.printf "%s: cut %d  |X|=%d |Y|=%d (areas %d/%d)\n"
          (H.name h) cut
          (Array.fold_left (fun acc s -> acc + (1 - s)) 0 side)
          (Array.fold_left ( + ) 0 side)
          areas.(0) areas.(1))
  in
  let engine_arg =
    engine_arg
      ~names:[ "fm"; "clip"; "flat-fm"; "flat-clip"; "eig"; "eig-fm" ]
      ~default:"clip"
      ~doc:"Refinement engine: clip (default), fm, flat-fm/flat-clip to \
            skip the multilevel hierarchy, or eig/eig-fm for spectral \
            bisection."
  in
  let term =
    Term.(const run $ input_arg $ seed_arg $ runs_arg $ jobs_arg $ ratio_arg
          $ threshold_arg $ tolerance_arg $ engine_arg
          $ out_arg "Write the side (0 or 1) of each module to $(docv), one \
                     per line."
          $ lenient_arg
          $ timeout_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "bipartition" ~exits
       ~doc:"Min-cut 2-way partitioning (ML algorithm).")
    term

let quadrisect_cmd =
  let run input seed runs jobs ratio tolerance gordian out lenient timeout
      trace metrics =
    obs_setup trace metrics;
    boundary @@ fun () ->
    if gordian then begin
      let h = load_hypergraph ~lenient input seed in
      let r = Mlpart_placement.Gordian.run h in
      Printf.printf "%s: GORDIAN 4-way cut %d, hpwl %.3f\n" (H.name h)
        r.Mlpart_placement.Gordian.cut r.Mlpart_placement.Gordian.hpwl;
      write_assignment out r.Mlpart_placement.Gordian.side
    end
    else
      partition ~input ~seed ~runs ~jobs ~tolerance ~lenient ~timeout ~out ~k:4
        (Algos.multiway ratio)
        (fun h _side cut -> Printf.printf "%s: ML 4-way cut %d\n" (H.name h) cut)
  in
  let gordian_arg =
    Arg.(value & flag
         & info [ "gordian" ]
             ~doc:"Use the GORDIAN-style analytic placement baseline instead \
                   of multilevel partitioning.")
  in
  let term =
    Term.(const run $ input_arg $ seed_arg $ runs_arg $ jobs_arg $ ratio_arg
          $ tolerance_arg $ gordian_arg
          $ out_arg "Write the quadrant (0 to 3) of each module to $(docv), \
                     one per line."
          $ lenient_arg $ timeout_arg
          $ trace_arg $ metrics_arg)
  in
  Cmd.v (Cmd.info "quadrisect" ~exits ~doc:"4-way partitioning.") term

let kpartition_cmd =
  let run input seed runs jobs k engine tolerance out lenient timeout trace
      metrics =
    obs_setup trace metrics;
    boundary @@ fun () ->
    if k < 2 then usage_fail "-k must be >= 2 (got %d)" k;
    partition ~input ~seed ~runs ~jobs ~tolerance ~lenient ~timeout ~out ~k
      (Option.get (Algos.find engine))
      (fun h side cut ->
        let part_areas = Array.make k 0 in
        Array.iteri (fun v p -> part_areas.(p) <- part_areas.(p) + H.area h v) side;
        Printf.printf "%s: %s %d-way cut %d (areas %s)\n" (H.name h) engine k cut
          (String.concat "/"
             (Array.to_list (Array.map string_of_int part_areas))))
  in
  let k_arg =
    Arg.(value & opt int 4
         & info [ "k" ] ~docv:"K" ~doc:"Number of parts (>= 2).")
  in
  let kengine_arg =
    engine_arg ~names:[ "nlevel"; "rb"; "multiway" ] ~default:"nlevel"
      ~doc:"Direct k-way engine: nlevel (default; one-pair-at-a-time \
            contraction with a persistent gain cache), rb (recursive \
            bisection, power-of-two k only), or multiway (level-batched \
            multilevel with Sanchis-style k-way FM)."
  in
  let term =
    Term.(const run $ input_arg $ seed_arg $ runs_arg $ jobs_arg $ k_arg
          $ kengine_arg $ tolerance_arg
          $ out_arg "Write the part (0 to K-1) of each module to $(docv), \
                     one per line."
          $ lenient_arg $ timeout_arg
          $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "kpartition" ~exits
       ~doc:"Direct k-way partitioning (n-level engine with gain cache, \
             recursive bisection, or level-batched multilevel).")
    term

let place_cmd =
  let run input seed leaf terminal out svg lenient timeout trace metrics =
    obs_setup trace metrics;
    boundary @@ fun () ->
    let h = load_hypergraph ~lenient input seed in
    let module T = Mlpart_placement.Topdown in
    let deadline = deadline_of timeout in
    let terminal_model =
      if terminal then T.Propagate_to_quadrant else T.Ignore_external
    in
    let config = { T.leaf_size = leaf; terminal_model } in
    let r = T.run ~config ?deadline (Rng.create seed) h in
    Printf.printf "%s: top-down placement hpwl %.3f (%d quadrisection calls)\n"
      (H.name h) r.T.hpwl r.T.regions;
    (match out with
    | None -> ()
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Array.iteri
              (fun v x -> Printf.fprintf oc "%d %.6f %.6f\n" v x r.T.y.(v))
              r.T.x));
    (match svg with
    | None -> ()
    | Some path ->
        let quad = Mlpart_placement.Gordian.quadrants_of_placement h ~x:r.T.x ~y:r.T.y in
        Mlpart_placement.Svg.write ~side:quad path h ~x:r.T.x ~y:r.T.y;
        Printf.printf "wrote %s\n" path);
    finish_timed_out deadline
      (Printf.sprintf
         "timed out after %d quadrisection call(s); remaining regions \
          leaf-spread"
         r.T.regions)
  in
  let leaf_arg =
    Arg.(value & opt int 12
         & info [ "leaf" ] ~docv:"N" ~doc:"Stop recursing below N modules.")
  in
  let terminal_arg =
    Arg.(value & opt bool true
         & info [ "terminal-propagation" ] ~docv:"BOOL"
             ~doc:"Propagate external pins as fixed quadrant terminals.")
  in
  let svg_arg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE" ~doc:"Render the placement as SVG.")
  in
  let term =
    Term.(const run $ input_arg $ seed_arg $ leaf_arg $ terminal_arg
          $ out_arg "Write the placement to $(docv): one \"module x y\" \
                     line per module."
          $ svg_arg $ lenient_arg $ timeout_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "place" ~exits
       ~doc:"Top-down global placement by recursive ML quadrisection.")
    term

let generate_cmd =
  let run circuit seed out trace metrics =
    obs_setup trace metrics;
    boundary @@ fun () ->
    let spec =
      match Mlpart_gen.Suite.find circuit with
      | spec -> spec
      | exception Not_found -> usage_fail "unknown benchmark %S" circuit
    in
    let h = Mlpart_gen.Suite.instantiate ~seed spec in
    match out with
    | Some path -> Hgr_io.write_file path h
    | None -> print_string (Hgr_io.to_string h)
  in
  let circuit_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"CIRCUIT" ~doc:"Table I circuit name (e.g. balu).")
  in
  let term =
    Term.(const run $ circuit_arg $ seed_arg
          $ out_arg "Write the generated netlist to $(docv) in .hgr format \
                     instead of standard output."
          $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "generate" ~exits
       ~doc:"Emit a synthetic Table I stand-in circuit in .hgr format.")
    term

let evaluate_cmd =
  let run input seed parts_path lenient trace metrics =
    obs_setup trace metrics;
    boundary @@ fun () ->
    let h = load_hypergraph ~lenient input seed in
    let side = Mlpart_partition.Objective.read_assignment parts_path in
    (* malformed assignments are parse errors of the part file, with the
       offending line where one exists *)
    if Array.length side <> H.num_modules h then
      raise
        (Diag.Mlpart_error
           [ Diag.error ~source:parts_path Diag.Bad_part
               "assignment has %d entries, netlist has %d modules"
               (Array.length side) (H.num_modules h) ]);
    Array.iteri
      (fun v p ->
        if p < 0 then
          raise
            (Diag.Mlpart_error
               [ Diag.error ~line:(v + 1) ~source:parts_path Diag.Bad_part
                   "part id %d of module %d is negative" p v ]))
      side;
    let report = Mlpart_partition.Objective.evaluate h side in
    Format.printf "%a@?" Mlpart_partition.Objective.pp report
  in
  let parts_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"PARTS" ~doc:"Assignment file: one part id per line.")
  in
  let term =
    Term.(const run $ input_arg $ seed_arg $ parts_arg $ lenient_arg
          $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "evaluate" ~exits
       ~doc:"Score a saved part assignment (cut, SOED, areas).")
    term

let info_cmd =
  let run input seed lenient check trace metrics =
    obs_setup trace metrics;
    boundary @@ fun () ->
    let h = load_hypergraph ~lenient input seed in
    Format.printf "%a@?" Mlpart_hypergraph.Analysis.pp_report h;
    Printf.printf "total area      %d\n" (H.total_area h);
    Printf.printf "max module area %d\n" (H.max_area h);
    if check then begin
      let _, report = H.repair h in
      Printf.printf "repair: %d net(s) dropped, %d pin(s) deduped, %d \
                     area(s) clamped, %d weight(s) clamped\n"
        report.H.dropped_nets report.H.deduped_pins report.H.clamped_areas
        report.H.clamped_weights;
      match H.validate h with
      | Ok () -> Printf.printf "validate: ok\n"
      | Error diags ->
          List.iter print_diag diags;
          raise
            (Diag.Mlpart_error
               [ Diag.error ~source:(H.name h) Diag.Invariant
                   "%d invariant violation(s)" (List.length diags) ])
    end
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Validate hypergraph invariants and print what a repair \
                   pass would change; exit 4 if any invariant is violated.")
  in
  let term =
    Term.(const run $ input_arg $ seed_arg $ lenient_arg $ check_arg
          $ trace_arg $ metrics_arg)
  in
  Cmd.v (Cmd.info "info" ~exits ~doc:"Print hypergraph statistics.") term

let selfcheck_cmd =
  let module Sc = Mlpart_check.Selfcheck in
  let module Prop = Mlpart_check.Property in
  let run seed cases max_size replay failures_path list_props trace metrics =
    obs_setup trace metrics;
    boundary @@ fun () ->
    if list_props then
      List.iter print_endline (Sc.property_names ())
    else begin
      let cases = match cases with Some n -> n | None -> Sc.cases_budget () in
      if cases <= 0 then usage_fail "--cases must be positive";
      if max_size < 0 then usage_fail "--max-size must be non-negative";
      let config = { Sc.seed; cases; max_size } in
      let fail_invariant failures =
        (* counterexamples are invariant violations: exit 4 through the
           boundary, one diagnostic per failing property *)
        raise
          (Diag.Mlpart_error
             (List.map
                (fun f ->
                  Diag.error ~source:f.Prop.property Diag.Invariant
                    "%s on %s — replay with --replay '%s'" f.Prop.message
                    f.Prop.counterexample (Prop.replay_token f))
                failures))
      in
      match replay with
      | Some token -> (
          match Sc.replay config ~token with
          | Error msg -> usage_fail "%s" msg
          | Ok None ->
              Printf.printf "replay %s: passes\n" token
          | Ok (Some f) ->
              Format.printf "%a@." Prop.pp_failure f;
              fail_invariant [ f ])
      | None ->
          let progress r =
            match r.Sc.failure with
            | None ->
                Printf.printf "ok   %-28s %d case(s)%s\n" r.Sc.name r.Sc.cases
                  (if r.Sc.skipped > 0 then
                     Printf.sprintf ", %d skipped" r.Sc.skipped
                   else "")
            | Some f -> Format.printf "%a@." Prop.pp_failure f
          in
          let report = Sc.run ~progress config in
          Printf.printf
            "selfcheck: %d propert%s, %d case(s) passed, %d skipped, %d \
             failure(s) (seed %d)\n"
            (List.length report.Sc.props)
            (if List.length report.Sc.props = 1 then "y" else "ies")
            report.Sc.total_cases report.Sc.total_skipped
            (List.length report.Sc.failures)
            seed;
          (match failures_path with
          | Some path when report.Sc.failures <> [] ->
              Out_channel.with_open_text path (fun oc ->
                  List.iter
                    (fun f -> Printf.fprintf oc "%s\n" (Prop.replay_token f))
                    report.Sc.failures);
              Printf.printf "wrote %d replay token(s) to %s\n"
                (List.length report.Sc.failures)
                path
          | Some _ | None -> ());
          if report.Sc.failures <> [] then fail_invariant report.Sc.failures
    end
  in
  let cases_arg =
    Arg.(value & opt (some int) None
         & info [ "cases" ] ~docv:"N"
             ~doc:"Generated cases per property (default: \
                   $(b,MLPART_SELFCHECK_CASES) or 50).")
  in
  let max_size_arg =
    Arg.(value & opt int 14
         & info [ "max-size" ] ~docv:"N"
             ~doc:"Instance sizes cycle through 0..N.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"TOKEN"
             ~doc:"Re-run exactly one case from a NAME:SEED:CASE token \
                   printed by a previous failure.")
  in
  let failures_arg =
    Arg.(value & opt (some string) None
         & info [ "failures" ] ~docv:"FILE"
             ~doc:"Write replay tokens of failing properties to $(docv), \
                   one per line (CI uploads this as an artifact).")
  in
  let list_arg =
    Arg.(value & flag
         & info [ "list" ] ~doc:"List property names and exit.")
  in
  let term =
    Term.(const run $ seed_arg $ cases_arg $ max_size_arg $ replay_arg
          $ failures_arg $ list_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "selfcheck" ~exits
       ~doc:"Run the property-based verification suite: every engine \
             against an exact brute-force oracle plus metamorphic laws \
             over the pipeline.  Failures print one-line replay tokens \
             and exit 4.")
    term

(* ---- serve mode ---- *)

let socket_arg =
  let doc = "Listen/connect address: a Unix-domain socket path, or \
             tcp:HOST:PORT." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOCKET" ~doc)

let parse_addr socket =
  match Server.addr_of_string socket with
  | Ok addr -> addr
  | Error msg -> usage_fail "%s" msg

let serve_cmd =
  let run socket workers jobs queue client_inflight cache coarsen_seed
      default_timeout_ms max_requests stats fault_seed fault_rate trace
      metrics =
    obs_setup trace metrics;
    boundary @@ fun () ->
    let addr = parse_addr socket in
    if workers < 1 then usage_fail "--workers must be >= 1";
    if queue < 1 then usage_fail "--queue must be >= 1";
    if fault_rate < 0. || fault_rate > 1. then
      usage_fail "--fault-rate must be in [0,1]";
    let faults =
      if fault_rate > 0. then Faults.uniform ~seed:fault_seed ~rate:fault_rate
      else Faults.none
    in
    let config =
      { Engine.default with
        Engine.workers; jobs; queue_capacity = queue; client_inflight;
        cache_capacity = cache; coarsen_seed; default_timeout_ms; faults }
    in
    let engine = Engine.create ~config () in
    Printf.printf "mlpart serve: listening on %s (workers %d, queue %d)\n%!"
      (Server.addr_to_string addr) workers queue;
    (match Server.run ?max_requests ?stats_path:stats engine addr with
    | () -> ()
    | exception Unix.Unix_error (e, fn, arg) ->
        print_diag
          (Diag.error ~source:socket Diag.Io_error "%s: %s %s"
             (Unix.error_message e) fn arg);
        exit 3);
    Printf.printf "mlpart serve: drained, exiting\n%!"
  in
  let workers_arg =
    Arg.(value & opt int 1
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains executing partition jobs.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Work-queue capacity; further requests are rejected with \
                   a queue-full diagnostic and a retry_after_ms hint.")
  in
  let client_inflight_arg =
    Arg.(value & opt int 16
         & info [ "client-inflight" ] ~docv:"N"
             ~doc:"Per-client cap on queued plus running jobs.")
  in
  let cache_arg =
    Arg.(value & opt int 32
         & info [ "cache" ] ~docv:"N"
             ~doc:"Resident coarsening hierarchies (LRU beyond this).")
  in
  let coarsen_seed_arg =
    Arg.(value & opt int 1
         & info [ "coarsen-seed" ] ~docv:"N"
             ~doc:"Seed of the content-keyed coarsening streams; requests \
                   only seed refinement, which is what makes cached \
                   hierarchies bit-identical to cold runs.")
  in
  let default_timeout_arg =
    Arg.(value & opt (some int) None
         & info [ "default-timeout-ms" ] ~docv:"MS"
             ~doc:"Deadline budget for requests that do not carry one.")
  in
  let max_requests_arg =
    Arg.(value & opt (some int) None
         & info [ "max-requests" ] ~docv:"N"
             ~doc:"Drain and exit after serving N request lines (test \
                   harnesses; the production exit path is SIGTERM).")
  in
  let stats_arg =
    Arg.(value & opt (some string) None
         & info [ "stats" ] ~docv:"FILE"
             ~doc:"Write a final stats/metrics snapshot to $(docv) after \
                   the drain.")
  in
  let fault_seed_arg =
    Arg.(value & opt int 1
         & info [ "fault-seed" ] ~docv:"N"
             ~doc:"Seed of the deterministic fault-injection schedule.")
  in
  let fault_rate_arg =
    Arg.(value & opt float 0.
         & info [ "fault-rate" ] ~docv:"P"
             ~doc:"Total injected-fault probability per request, split \
                   over parse corruption, worker crashes, slowness and \
                   disconnects.  0 (default) disables injection.")
  in
  let term =
    Term.(const run $ socket_arg $ workers_arg $ jobs_arg $ queue_arg
          $ client_inflight_arg $ cache_arg $ coarsen_seed_arg
          $ default_timeout_arg $ max_requests_arg $ stats_arg
          $ fault_seed_arg $ fault_rate_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:"Fault-tolerant partitioning daemon: newline-delimited JSON \
             requests over a Unix-domain or TCP socket, with admission \
             control, per-job deadline budgets, crash isolation with \
             retry, and a content-addressed hierarchy cache.  SIGTERM \
             drains the queue and exits 0.")
    term

let client_cmd =
  let run socket raw ping stats_q hgr bench path id client seed starts
      tolerance timeout_ms side trace metrics =
    obs_setup trace metrics;
    boundary @@ fun () ->
    let addr = parse_addr socket in
    let control op id =
      Json.to_string ~indent:false
        (Json.Obj [ ("op", Json.Str op); ("id", Json.Str id) ])
    in
    let line =
      match raw with
      | Some line -> line
      | None ->
          if ping then control "ping" id
          else if stats_q then control "stats" id
          else begin
            let src =
              match (hgr, bench, path) with
              | Some f, None, None ->
                  Protocol.Inline (In_channel.with_open_text f In_channel.input_all)
              | None, Some b, None -> Protocol.Bench b
              | None, None, Some p -> Protocol.Path p
              | None, None, None ->
                  usage_fail
                    "a request needs one of --hgr, --bench, --path (or \
                     --raw, --ping, --stats)"
              | _ -> usage_fail "at most one of --hgr, --bench, --path"
            in
            Protocol.request_to_line
              { Protocol.id; client; src; seed; starts; tolerance;
                timeout_ms; return_side = side }
          end
    in
    let reply =
      match
        Server.with_connection addr (fun ic oc -> Server.roundtrip ic oc line)
      with
      | reply -> reply
      | exception Unix.Unix_error (e, fn, _) ->
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
    in
    match reply with
    | Error msg ->
        print_diag (Diag.error ~source:socket Diag.Io_error "%s" msg);
        exit 3
    | Ok resp ->
        print_endline (Protocol.response_to_line resp);
        List.iter print_diag resp.Protocol.diags;
        exit (Protocol.exit_code_of_response resp)
  in
  let raw_arg =
    Arg.(value & opt (some string) None
         & info [ "raw" ] ~docv:"LINE"
             ~doc:"Send this exact request line (hostile-input testing).")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Send a ping control query.")
  in
  let stats_q_arg =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Query live daemon stats and metrics.")
  in
  let hgr_arg =
    Arg.(value & opt (some string) None
         & info [ "hgr" ] ~docv:"FILE"
             ~doc:"Read $(docv) and carry it inline in the request.")
  in
  let bench_arg =
    Arg.(value & opt (some string) None
         & info [ "bench" ] ~docv:"NAME"
             ~doc:"Partition the generated Table I stand-in $(docv).")
  in
  let path_arg =
    Arg.(value & opt (some string) None
         & info [ "path" ] ~docv:"FILE"
             ~doc:"Partition a netlist file readable by the daemon.")
  in
  let id_arg =
    Arg.(value & opt string "" & info [ "id" ] ~docv:"ID" ~doc:"Request id.")
  in
  let client_arg =
    Arg.(value & opt string "anon"
         & info [ "client" ] ~docv:"NAME"
             ~doc:"Client identity for per-client admission caps.")
  in
  let starts_arg =
    Arg.(value & opt int 1
         & info [ "starts" ] ~docv:"N"
             ~doc:"Independent multilevel starts; the best cut is kept.")
  in
  let timeout_ms_arg =
    Arg.(value & opt (some int) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Per-job deadline budget; an expired job still returns \
                   its best-so-far partition, marked degraded (exit 5).")
  in
  let side_arg =
    Arg.(value & flag
         & info [ "side" ] ~doc:"Ask for the full side assignment.")
  in
  let term =
    Term.(const run $ socket_arg $ raw_arg $ ping_arg $ stats_q_arg $ hgr_arg
          $ bench_arg $ path_arg $ id_arg $ client_arg $ seed_arg $ starts_arg
          $ tolerance_arg $ timeout_ms_arg $ side_arg $ trace_arg
          $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "client" ~exits
       ~doc:"Submit one request to a running mlpart serve daemon, print \
             the response line, and exit with the response's documented \
             code (0 ok, 3 failed, 5 degraded, 6 rejected).")
    term

let setup_logging () =
  match Sys.getenv_opt "MLPART_VERBOSE" with
  | Some ("1" | "true" | "debug") ->
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Debug)
  | Some _ | None -> ()

let () =
  setup_logging ();
  let doc = "multilevel circuit partitioning (Alpert-Huang-Kahng, DAC 1997)" in
  let main = Cmd.group (Cmd.info "mlpart" ~doc ~exits)
      [ bipartition_cmd; quadrisect_cmd; kpartition_cmd; place_cmd;
        generate_cmd; evaluate_cmd; info_cmd; selfcheck_cmd; serve_cmd;
        client_cmd ]
  in
  (* cmdliner reports its own usage errors as 124; fold them into the
     documented usage code *)
  match Cmd.eval main with
  | 124 -> exit 2
  | code -> exit code
