module Json = Mlpart_obs.Json
module H = Mlpart_hypergraph.Hypergraph
open Benchv2

let close = Alcotest.float 1e-9

let json text =
  match Json.of_string text with Ok j -> j | Error m -> Alcotest.failf "bad JSON: %s" m

(* ---- Stats ---- *)

let one_to_ten = Array.init 10 (fun i -> float_of_int (i + 1))

let nearest_rank () =
  Alcotest.check close "p50" 5. (Stats.percentile 50. one_to_ten);
  Alcotest.check close "p90" 9. (Stats.percentile 90. one_to_ten);
  Alcotest.check close "p99" 10. (Stats.percentile 99. one_to_ten);
  Alcotest.check close "p0" 1. (Stats.percentile 0. one_to_ten);
  Alcotest.check close "single" 7. (Stats.percentile 90. [| 7. |])

(* Reference values from Python's statistics.quantiles(data, n=4). *)
let quartiles () =
  let check name expected data =
    let q1, q2, q3 = Stats.quartiles data in
    Alcotest.(check (list close)) name expected [ q1; q2; q3 ]
  in
  check "1..10" [ 2.75; 5.5; 8.25 ] one_to_ten;
  check "unsorted" [ 12.5; 25.; 37.5 ] [| 40.; 10.; 30.; 20. |];
  check "three" [ 1.; 2.; 3. ] [| 3.; 1.; 2. |];
  Alcotest.check close "median even" 25. (Stats.median [| 40.; 10.; 30.; 20. |]);
  Alcotest.check close "spread" 1. (Stats.spread [| 40.; 10.; 30.; 20. |]);
  Alcotest.check close "spread of constants" 0. (Stats.spread [| 3.; 3.; 3. |])

(* ---- compare ---- *)

let spec =
  let d metric higher bound =
    { Record.metric; unit_of = "ms"; higher_is_better = higher; bound = Some bound }
  in
  {
    Record.end_to_end = [ d "lat" false 0.05; d "tput" true 0.05; d "noisy" false 0.05 ];
    per_layer = [];
  }

let record ?(seed = 1) ?(host = "h") metrics =
  {
    Record.workload = "w";
    meta =
      { Record.host; nproc = 2; jobs = 1; seed; seconds = 10; trace = false; op_list = 4; ops = 99 };
    attempted = 99;
    failed = 0;
    metrics =
      List.map (fun (name, value, spread) -> { Record.name; value; unit_ = "ms"; spread }) metrics;
  }

let verdicts old_metrics new_metrics =
  match Verdict.table spec ~old_runs:[ record old_metrics ] ~new_runs:[ record new_metrics ] with
  | Ok rows -> List.map (fun r -> (r.Verdict.metric, Verdict.to_string r.Verdict.verdict)) rows
  | Error e -> Alcotest.fail e

let verdict_table () =
  let old = [ ("lat", 100., 0.01); ("tput", 10., 0.01); ("noisy", 5., 0.01) ] in
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "within"
    [ ("lat", "within bound"); ("tput", "within bound"); ("noisy", "within bound") ]
    (verdicts old [ ("lat", 104., 0.01); ("tput", 9.6, 0.01); ("noisy", 5., 0.01) ]);
  Alcotest.check pair "worse and better follow the metric's direction"
    [ ("lat", "worse"); ("tput", "better"); ("noisy", "unresolved") ]
    (verdicts old [ ("lat", 106., 0.01); ("tput", 11., 0.01); ("noisy", 5., 0.2) ]);
  Alcotest.check pair "lower latency, lower throughput"
    [ ("lat", "better"); ("tput", "worse"); ("noisy", "within bound") ]
    (verdicts old [ ("lat", 90., 0.01); ("tput", 9., 0.01); ("noisy", 5.1, 0.01) ])

let refuses_mismatch () =
  let refused a b = Result.is_error (Verdict.table spec ~old_runs:a ~new_runs:b) in
  Alcotest.(check bool) "seed" true (refused [ record [] ] [ record ~seed:2 [] ]);
  Alcotest.(check bool) "host" true (refused [ record [] ] [ record ~host:"other" [] ]);
  Alcotest.(check bool) "seed within one file" true
    (refused [ record []; record ~seed:2 [] ] [ record [] ]);
  Alcotest.(check bool) "same" false (refused [ record [] ] [ record [] ])

(* Several runs per file: medians are compared, and the spread between
   the runs decides whether the bound can be judged. *)
let repeated_runs () =
  let runs values = List.map (fun v -> record [ ("lat", v, 0.01) ]) values in
  let verdict old_values new_values =
    match Verdict.table spec ~old_runs:(runs old_values) ~new_runs:(runs new_values) with
    | Ok [ r ] -> (r.Verdict.now, Verdict.to_string r.Verdict.verdict)
    | Ok _ -> Alcotest.fail "one row expected"
    | Error e -> Alcotest.fail e
  in
  let row = Alcotest.(pair close string) in
  Alcotest.check row "steady runs, median 10% slower" (111., "worse")
    (verdict [ 100.; 101.; 102. ] [ 112.; 110.; 111. ]);
  Alcotest.check row "one run in three drifted" (101., "unresolved")
    (verdict [ 100.; 101.; 102. ] [ 101.; 130.; 99. ])

(* ---- spans ---- *)

let trace =
  {|{"traceEvents": [
      {"name": "a", "ph": "X", "ts": 0.0, "dur": 100.0, "pid": 1, "tid": 0},
      {"name": "b", "ph": "X", "ts": 10.0, "dur": 30.0, "pid": 1, "tid": 0},
      {"name": "c", "ph": "X", "ts": 50.0, "dur": 20.0, "pid": 1, "tid": 0},
      {"name": "d", "ph": "X", "ts": 55.0, "dur": 5.0, "pid": 1, "tid": 0},
      {"name": "mark", "ph": "i", "ts": 56.0, "pid": 1, "tid": 0},
      {"name": "nlevel/contract", "ph": "X", "ts": 200.0, "dur": 10.0, "pid": 1, "tid": 0},
      {"name": "other", "ph": "X", "ts": 215.0, "dur": 5.0, "pid": 1, "tid": 0},
      {"name": "nlevel/uncontract", "ph": "X", "ts": 230.0, "dur": 10.0, "pid": 1, "tid": 0},
      {"name": "e", "ph": "X", "ts": 20.0, "dur": 1.0, "pid": 1, "tid": 3}
    ], "otherData": {"dropped": 2}}|}

let self_times () =
  let spans, dropped = Spans.of_json (json trace) in
  Alcotest.(check int) "dropped" 2 dropped;
  Alcotest.(check int) "instants skipped" 8 (List.length spans);
  let roots = Spans.forest spans in
  Alcotest.(check (list string)) "roots across threads"
    [ "a"; "e"; "nlevel/contract"; "other"; "nlevel/uncontract" ]
    (List.map (fun r -> r.Spans.span.Spans.name) roots);
  let rec selfs acc n =
    List.fold_left selfs ((n.Spans.span.Spans.name, Spans.self_time n) :: acc) n.Spans.children
  in
  let selfs = selfs [] (List.hd roots) in
  Alcotest.(check (list (pair string close))) "self = duration minus children"
    [ ("d", 5.); ("c", 15.); ("b", 30.); ("a", 50.) ]
    selfs;
  Alcotest.check close "gap minus other roots" 15.
    (Spans.gap ~after:"nlevel/contract" ~before:"nlevel/uncontract" roots)

let layer_attribution () =
  let spans, _ =
    Spans.of_json
      (json
         {|{"traceEvents": [
             {"name": "ml/coarsen", "ph": "X", "ts": 0.0, "dur": 3000.0, "tid": 0},
             {"name": "coarsen/match", "ph": "X", "ts": 0.0, "dur": 1000.0, "tid": 0},
             {"name": "coarsen/round", "ph": "X", "ts": 100.0, "dur": 500.0, "tid": 0},
             {"name": "coarsen/induce", "ph": "X", "ts": 1000.0, "dur": 1500.0, "tid": 0},
             {"name": "ml/initial", "ph": "X", "ts": 3000.0, "dur": 1000.0, "tid": 0},
             {"name": "fm/pass", "ph": "X", "ts": 3100.0, "dur": 400.0, "tid": 0},
             {"name": "ml/refine", "ph": "X", "ts": 4000.0, "dur": 1000.0, "tid": 0},
             {"name": "fm/pass", "ph": "X", "ts": 4200.0, "dur": 600.0, "tid": 0}]}|})
  in
  let times = List.fold_left (fun acc r -> Layers.add_tree acc r) [] (Spans.forest spans) in
  let layers = Layers.breakdown ~wall_ms:10. times in
  let get l = Option.value (List.assoc_opt l layers) ~default:nan in
  Alcotest.check close "coarsening phase" 3. (get "coarsen.ms");
  Alcotest.check close "FM under ml/initial counts as initial" 1. (get "initial.ms");
  Alcotest.check close "refinement phase" 1. (get "refine.ms");
  Alcotest.check close "outside the phases" 5. (get "other.ms");
  Alcotest.check close "match share includes its rounds" 10. (get "match.pct");
  Alcotest.check close "induce share" 15. (get "hypergraph.induce_pct");
  Alcotest.check close "FM share across phases" 10. (get "fm.pass_pct");
  Alcotest.check close "absent module" 0. (get "rounds.pct")

(* ---- serve stats ---- *)

(* A [stats] reply line as the daemon encodes it, over a private
   registry. *)
let stats_reply registry =
  let module Metrics = Mlpart_obs.Metrics in
  let module P = Mlpart_serve.Protocol in
  P.response_to_line
    (P.make_response ~id:"s"
       ~stats:(Json.Obj [ ("metrics", Metrics.to_json ~registry ()) ])
       P.Done)

let histogram_mean () =
  let module Metrics = Mlpart_obs.Metrics in
  Metrics.enable ();
  let registry = Metrics.create () in
  let wait = Metrics.histogram ~registry "serve.queue.wait_ms" in
  let evictions = Metrics.counter ~registry "serve.cache.evictions" in
  List.iter (Metrics.observe wait) [ 4; 6 ];
  Metrics.incr evictions;
  let before = Layers.stats_metrics (json (stats_reply registry)) in
  List.iter (Metrics.observe wait) [ 5; 15; 20; 0 ];
  Metrics.add evictions 3;
  let after = Layers.stats_metrics (json (stats_reply registry)) in
  Alcotest.check close "mean of the new observations" 10.
    (Layers.histogram_mean ~before ~after "serve.queue.wait_ms");
  Alcotest.check close "absent histogram" 0.
    (Layers.histogram_mean ~before ~after "serve.job.elapsed_ms");
  Alcotest.(check int) "counter" 4 (Layers.counter after "serve.cache.evictions")

(* ---- answer checks ---- *)

let path4 =
  H.make ~areas:[| 1; 1; 1; 1 |]
    ~nets:[| ([| 0; 1 |], 1); ([| 1; 2 |], 2); ([| 2; 3 |], 1) |]
    ()

let answer_checks () =
  let cut ~reported side =
    match Verify.check path4 ~k:2 ~reported side with
    | Ok c -> Some c
    | Error _ -> None
  in
  let balanced ~k side = Verify.imbalance path4 ~k side = None in
  let int_opt = Alcotest.(option int) in
  Alcotest.check int_opt "valid" (Some 2) (cut ~reported:2 [| 0; 0; 1; 1 |]);
  Alcotest.check int_opt "wrong cut" None (cut ~reported:1 [| 0; 0; 1; 1 |]);
  Alcotest.check int_opt "part out of range" None (cut ~reported:2 [| 0; 0; 2; 1 |]);
  Alcotest.check int_opt "short" None (cut ~reported:1 [| 0; 1 |]);
  Alcotest.(check bool) "balanced" true (balanced ~k:2 [| 0; 0; 0; 1 |]);
  Alcotest.(check bool) "unbalanced" false (balanced ~k:2 [| 0; 0; 0; 0 |]);
  Alcotest.(check bool) "k-way bounds keep the +k slack" true
    (balanced ~k:4 [| 0; 1; 2; 2 |]);
  Alcotest.(check (option (array int))) "parts file" (Some [| 0; 1; 1 |])
    (Verify.parse_parts "0\n1\n1\n");
  Alcotest.(check (option (array int))) "garbage parts" None
    (Verify.parse_parts "0\nx\n");
  Alcotest.check int_opt "2-way line" (Some 44)
    (Verify.printed_cut "balu: cut 44  |X|=387 |Y|=414 (areas 387/414)\n");
  Alcotest.check int_opt "k-way line" (Some 463)
    (Verify.printed_cut
       "primary2: nlevel 4-way cut 463 (areas 777/772/739/726)\n")

let miss_netlists () =
  let base = "3 7\n1 2\n2 3\n3 4 5 6 7\n" in
  let parse text =
    let module Hgr_io = Mlpart_hypergraph.Hgr_io in
    match Hgr_io.parse_string ~mode:Hgr_io.Strict text with
    | Ok p -> p.Hgr_io.hypergraph
    | Error _ -> Alcotest.failf "miss netlist does not parse:\n%s" text
  in
  (* the ids that share this base: m = 0 .. 7·3 - 1 *)
  let texts =
    List.init 21 (fun m -> Workload.miss_text ~base (m * Workload.miss_bases))
  in
  List.iter
    (fun t ->
      let h = parse t in
      Alcotest.(check int) "one extra net" 4 (H.num_nets h);
      Alcotest.(check int) "same modules" 7 (H.num_modules h))
    texts;
  let fingerprints =
    List.map (fun t -> Mlpart_serve.Cache.fingerprint (parse t)) texts
  in
  Alcotest.(check int) "distinct content" 21
    (List.length (List.sort_uniq compare fingerprints))

(* ---- host and children ---- *)

let host_factor () =
  Alcotest.check close "nominal host" 1.
    (Host.factor ~before:Host.nominal_ms ~after:Host.nominal_ms);
  Alcotest.check close "twice as slow" 0.5
    (Host.factor ~before:(1.5 *. Host.nominal_ms) ~after:(2.5 *. Host.nominal_ms));
  Alcotest.(check bool) "reference loop is timed" true (Host.reference_ms () > 0.)

(* A child run through the spawner reports its own exit code and peak
   RSS, not the peak of the process that grew after forking it. *)
let spawner () =
  let s = Spawner.start () in
  Fun.protect
    ~finally:(fun () -> Spawner.stop s)
    (fun () ->
      let big = Array.make (4 lsl 20) 1 in
      let out = "spawner.out" in
      let run args = Spawner.run s "/bin/sh" ("-c" :: args) ~stdout:out ~stderr:out in
      Alcotest.(check int) "exit code" 3 (run [ "exit 3" ]).Proc.code;
      let r = run [ "true" ] in
      Alcotest.(check int) "success" 0 r.Proc.code;
      Alcotest.(check bool) "own peak RSS" true
        (r.Proc.rss_kb > 0 && r.Proc.rss_kb < Array.length big * 8 / 1024 / 2);
      Sys.remove out)

let () =
  Alcotest.run "benchv2"
    [
      ( "host",
        [
          Alcotest.test_case "scaling factor" `Quick host_factor;
          Alcotest.test_case "spawner" `Quick spawner;
        ] );
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick nearest_rank;
          Alcotest.test_case "quartiles match Python" `Quick quartiles;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdict table" `Quick verdict_table;
          Alcotest.test_case "refuses mismatched runs" `Quick refuses_mismatch;
          Alcotest.test_case "repeated runs" `Quick repeated_runs;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time and gaps" `Quick self_times;
          Alcotest.test_case "layer attribution" `Quick layer_attribution;
        ] );
      ( "serve",
        [ Alcotest.test_case "histogram mean from stats" `Quick histogram_mean ]
      );
      ( "checks",
        [
          Alcotest.test_case "answer checks" `Quick answer_checks;
          Alcotest.test_case "miss netlists" `Quick miss_netlists;
        ] );
    ]
