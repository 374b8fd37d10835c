(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 4 for the experiment index), plus
   Bechamel micro-kernels, one per table, for timing the core workloads.

   Usage:
     main.exe                  -- all tables, scaled default protocol
     main.exe table4 figure4   -- selected experiments
     main.exe kernels          -- Bechamel micro-benchmarks
   Options: --runs N  --seed N  --tier tiny|small|standard|full  --jobs N
            --json FILE (kernels: machine-readable timings and words
            allocated per run, for BENCH_*.json perf tracking across PRs) *)

module Tables = Mlpart_experiments.Tables
module Algos = Mlpart_experiments.Algos
module Suite = Mlpart_gen.Suite
module Rng = Mlpart_util.Rng
module Hgr_io = Mlpart_hypergraph.Hgr_io

let kernels ?json ~jobs () =
  (* Fail on an unwritable --json path up front, not after minutes of
     benchmarking. *)
  (match json with
  | None -> ()
  | Some path -> (
      match Out_channel.open_text path with
      | oc -> Out_channel.close oc
      | exception Sys_error msg ->
          Printf.eprintf "error: cannot write --json file: %s\n" msg;
          exit 1));
  let open Bechamel in
  let h small = Suite.instantiate (Suite.find small) in
  let balu = h "balu" in
  let primary1 = h "primary1" in
  let primary2 = h "primary2" in
  let primary2_hgr = Hgr_io.to_string primary2 in
  let rng = Rng.create 42 in
  (* Intra-run parallelism for the pipeline kernels; [None] at --jobs 1
     exercises the sequential paths.  Outputs are bit-identical either
     way — only the timings move. *)
  let pool = if jobs > 1 then Some (Mlpart_util.Pool.get ~jobs) else None in
  let kernel name f = (name, f) in
  let engine ?(k = 2) algo h () =
    ignore (algo.Algos.run ~tolerance:0.1 (Rng.split rng) h ~k)
  in
  (* Refinement-only kernel: the hierarchy and coarsest-level solution are
     built once, so the staged function times exactly the uncoarsening
     sweep (project + engine run per level) that the FM engine dominates.
     One arena is reused across iterations, as the multilevel drivers do. *)
  let module Ml = Mlpart_multilevel.Ml in
  let module Hierarchy = Mlpart_multilevel.Hierarchy in
  let refine_kernel =
    let c = Ml.mlc in
    let hier = Ml.hierarchy ~config:c (Rng.create 11) balu in
    let coarse =
      (Mlpart_partition.Fm.run ~config:c.Ml.engine (Rng.create 12)
         hier.Hierarchy.coarsest)
        .Mlpart_partition.Fm.side
    in
    let arena = Mlpart_partition.Fm.create_arena ~h:balu () in
    kernel "phases/refine" (fun () ->
        ignore (Ml.refine_up c ?pool ~arena (Rng.split rng) hier coarse))
  in
  let kernels =
    [
      (* Table II kernel: one FM run with LIFO buckets. *)
      kernel "table2/fm-lifo" (engine Algos.flat_fm balu);
      (* Table III kernel: one CLIP run. *)
      kernel "table3/clip" (engine Algos.flat_clip balu);
      (* Table IV kernel: one multilevel MLc run at R = 1, with the
         domain pool threaded into the run itself. *)
      kernel "table4/mlc" (fun () ->
          ignore
            (Ml.run ~config:(Ml.with_ratio Ml.mlc 1.0) ?pool (Rng.split rng)
               balu));
      (* Tables V/VI kernel: slow coarsening (R = 0.33). *)
      kernel "table5_6/mlc-r0.33" (engine (Algos.mlc 0.33) balu);
      (* Table VII kernel: lookahead engine. *)
      kernel "table7/cl-la3f" (engine Algos.cl_la3f balu);
      (* Table VIII kernel: PROP engine (the heap-based slowdown). *)
      kernel "table8/cl-prf" (engine Algos.cl_prf balu);
      (* Table IX kernel: multilevel quadrisection. *)
      kernel "table9/ml-4way" (engine ~k:4 (Algos.multiway 1.0) primary1);
      (* Figure 4 kernel: Match coarsening at R = 0.5. *)
      kernel "figure4/match" (fun () ->
          ignore
            (Mlpart_multilevel.Match.run ?pool (Rng.split rng) primary1
               ~ratio:0.5));
      (* Extras kernels. *)
      kernel "extras/eig" (fun () ->
          ignore (Mlpart_placement.Spectral.run balu));
      kernel "extras/rb4" (fun () ->
          ignore (Mlpart_multilevel.Rb.run ?pool (Rng.split rng) balu ~k:4));
      (* n-level kernels: one-pair-at-a-time contraction with the
         persistent gain cache, racing the level-batched engines above
         (extras/rb4, table9/ml-4way) on the same Table IX workloads. *)
      kernel "nlevel/balu-2way" (fun () ->
          ignore (Mlpart_multilevel.Nlevel.run (Rng.split rng) balu ~k:2));
      kernel "nlevel/primary1-4way" (fun () ->
          ignore
            (Mlpart_multilevel.Nlevel.run (Rng.split rng) primary1 ~k:4));
      (* The op of benchv2's kway workload, without process start-up:
         primary2 under generator seed 1, three parts. *)
      kernel "nlevel/primary2-3way" (fun () ->
          ignore
            (Mlpart_multilevel.Nlevel.run (Rng.split rng) primary2 ~k:3));
      kernel "extras/topdown-place" (fun () ->
          ignore (Mlpart_placement.Topdown.run (Rng.split rng) balu));
      (* Phase kernel: uncoarsening refinement sweep alone. *)
      refine_kernel;
      (* Substrate kernels. *)
      kernel "substrate/induce" (fun () ->
          let cluster_of, _ =
            Mlpart_multilevel.Match.run ?pool (Rng.split rng) primary1
              ~ratio:1.0
          in
          ignore
            (Mlpart_hypergraph.Hypergraph.induce ?pool primary1 cluster_of));
      kernel "substrate/gordian-cg" (fun () ->
          ignore (Mlpart_placement.Gordian.run balu));
      (* Ingest kernel: strict parse of primary2 rendered as .hgr. *)
      kernel "io/hgr-parse" (fun () ->
          ignore (Hgr_io.parse_string ~mode:Hgr_io.Strict primary2_hgr));
    ]
  in
  (* Allocation per run, from a few runs of each kernel before the timing,
     while the kernels' shared generator is in the same state in every
     build, so the counts repeat exactly: minor words from
     [Gc.minor_words] (the minor counts of [Gc.quick_stat] lag until the
     next minor collection), and major words (direct major allocations
     plus promotions) from [Gc.quick_stat] across a minor collection on
     each side.  Only the calling domain's allocation is counted, which is
     all of it at --jobs 1. *)
  let alloc_runs = 3 in
  let words f =
    let major () = (Gc.quick_stat ()).Gc.major_words in
    Gc.minor ();
    let minor0 = Gc.minor_words () and major0 = major () in
    for _ = 1 to alloc_runs do
      f ()
    done;
    Gc.minor ();
    let per_run w0 w1 = (w1 -. w0) /. float_of_int alloc_runs in
    (per_run minor0 (Gc.minor_words ()), per_run major0 (major ()))
  in
  let alloc = List.map (fun (_, f) -> words f) kernels in
  let tests =
    Test.make_grouped ~name:"kernels"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) kernels)
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] -> rows := (name, ns) :: !rows
      | Some _ | None -> ())
    results;
  let alloc_of = List.combine (Test.names tests) alloc in
  let rows =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !rows
    |> List.map (fun (name, ns) -> (name, ns, List.assoc name alloc_of))
  in
  Printf.printf
    "\nBechamel kernels (monotonic clock; words allocated per run):\n";
  List.iter
    (fun (name, ns, (minor, major)) ->
      Printf.printf "  %-28s %12.0f ns/run %12.0f minor %10.0f major\n" name
        ns minor major)
    rows;
  match json with
  | None -> ()
  | Some path ->
      (* Phase breakdown of one MLc run on balu rides along with the kernel
         timings, so the per-phase trajectory is tracked across PRs too.
         The breakdown is derived from Trace spans — the same timing source
         chrome://tracing exports use. *)
      let module Trace = Mlpart_obs.Trace in
      let module Ml = Mlpart_multilevel.Ml in
      Trace.enable ();
      ignore (Ml.run ~config:Ml.mlc (Rng.create 7) balu);
      let coarsen_s = ref 0.0
      and initial_s = ref 0.0
      and refine_s = ref 0.0
      and refine_levels = ref 0 in
      List.iter
        (fun (e : Trace.event) ->
          let dur_s = float_of_int e.Trace.dur *. 1e-9 in
          match e.Trace.name with
          | "ml/coarsen" -> coarsen_s := !coarsen_s +. dur_s
          | "ml/initial" -> initial_s := !initial_s +. dur_s
          | "ml/refine_level" ->
              refine_s := !refine_s +. dur_s;
              incr refine_levels
          | _ -> ())
        (Trace.events ());
      Trace.disable ();
      (* Top-level run metadata makes every BENCH_*.json self-describing:
         which jobs count produced it, from which revision, and when. *)
      let git_rev =
        match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
        | ic ->
            let line = try input_line ic with End_of_file -> "unknown" in
            ignore (Unix.close_process_in ic);
            line
        | exception _ -> "unknown"
      in
      let timestamp =
        let tm = Unix.gmtime (Unix.gettimeofday ()) in
        Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
          (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
          tm.Unix.tm_sec
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "{\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  \"meta\": {\"jobs\": %d, \"git_rev\": %S, \"generated_at\": \
            %S},\n"
           jobs git_rev timestamp);
      Buffer.add_string buf "  \"kernels\": [\n";
      let last = List.length rows - 1 in
      List.iteri
        (fun i (name, ns, (minor, major)) ->
          Buffer.add_string buf
            (Printf.sprintf
               "    {\"name\": %S, \"ns_per_run\": %.1f, \
                \"minor_words_per_run\": %.0f, \"major_words_per_run\": \
                %.0f}%s\n"
               name ns minor major
               (if i = last then "" else ",")))
        rows;
      Buffer.add_string buf "  ],\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  \"phases_mlc_balu\": {\"coarsen_s\": %.6f, \"initial_s\": %.6f, \
            \"refine_s\": %.6f, \"refine_levels\": %d}\n"
           !coarsen_s !initial_s !refine_s !refine_levels);
      Buffer.add_string buf "}\n";
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Buffer.contents buf));
      Printf.printf "wrote %s\n" path

let () =
  let runs = ref Tables.default_protocol.Tables.runs in
  let seed = ref Tables.default_protocol.Tables.seed in
  let tier = ref Tables.default_protocol.Tables.tier in
  let jobs = ref Tables.default_protocol.Tables.jobs in
  let json = ref None in
  let selected = ref [] in
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse = function
    | [] -> ()
    | "--runs" :: v :: rest ->
        runs := int_of_string v;
        parse rest
    | "--json" :: v :: rest ->
        json := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--jobs" :: v :: rest ->
        jobs := int_of_string v;
        parse rest
    | "--tier" :: v :: rest ->
        (match Suite.tier_of_string v with
        | Some t -> tier := t
        | None -> failwith (Printf.sprintf "unknown tier %S" v));
        parse rest
    | name :: rest ->
        selected := name :: !selected;
        parse rest
  in
  parse args;
  let p = { Tables.runs = !runs; seed = !seed; tier = !tier; jobs = !jobs } in
  let dispatch = function
    | "table1" -> Tables.table1 p
    | "table2" -> Tables.table2 p
    | "table3" -> Tables.table3 p
    | "table4" -> Tables.table4 p
    | "table5" -> Tables.table5 p
    | "table6" -> Tables.table6 p
    | "table7" -> Tables.table7 p
    | "table8" -> Tables.table8 p
    | "table9" -> Tables.table9 p
    | "figure4" -> Tables.figure4 p
    | "ablations" -> Tables.ablations p
    | "extras" -> Tables.extras p
    | "recursive" -> Tables.recursive p
    | "all" -> Tables.all p
    | "kernels" -> kernels ?json:!json ~jobs:!jobs ()
    | other -> failwith (Printf.sprintf "unknown experiment %S" other)
  in
  match List.rev !selected with
  | [] ->
      Tables.all p;
      kernels ?json:!json ~jobs:!jobs ()
  | names -> List.iter dispatch names
