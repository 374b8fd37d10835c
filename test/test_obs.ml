(* Tests for Mlpart_obs: the Json core, the Trace span recorder, the
   Metrics registry, and the schema/determinism contracts of the two
   exports the CLI writes for --trace/--metrics. *)

module Json = Mlpart_obs.Json
module Trace = Mlpart_obs.Trace
module Metrics = Mlpart_obs.Metrics
module Diag = Mlpart_util.Diag
module Rng = Mlpart_util.Rng
module Pool = Mlpart_util.Pool
module Ml = Mlpart_multilevel.Ml

let check = Alcotest.check

let instance seed =
  let rng = Rng.create seed in
  Mlpart_gen.Generate.rent ~rng ~modules:300 ~nets:375 ~pins:1050 ()

(* ---- Json ---- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bool", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 3.25);
        ("str", Json.Str "a \"quoted\"\nline");
        ("list", Json.List [ Json.Int 1; Json.Int 2; Json.Obj [] ]);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> check Alcotest.bool "round-trips" true (v = v')
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  match Json.of_string (Json.to_string ~indent:false v) with
  | Ok v' -> check Alcotest.bool "compact round-trips" true (v = v')
  | Error e -> Alcotest.failf "compact reparse failed: %s" e

let test_json_rejects_garbage () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\": 1} trailing";
  bad "nul";
  bad "\"unterminated"

let test_json_member () =
  match Json.of_string "{\"a\": {\"b\": 7}}" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v -> (
      (match Json.member "a" v with
      | Some inner ->
          check Alcotest.bool "nested member" true
            (Json.member "b" inner = Some (Json.Int 7))
      | None -> Alcotest.fail "missing member a");
      check Alcotest.bool "absent member" true (Json.member "z" v = None))

let test_json_floats () =
  check Alcotest.string "integral float keeps point" "1.0"
    (Json.to_string ~indent:false (Json.Float 1.0));
  check Alcotest.string "non-finite is null" "null"
    (Json.to_string ~indent:false (Json.Float Float.nan))

(* ---- Trace ---- *)

let test_trace_disabled_is_null () =
  Trace.disable ();
  Trace.reset ();
  check Alcotest.int "start yields 0" 0 (Trace.start ());
  Trace.complete "ignored" 0;
  Trace.instant "ignored";
  Trace.span "ignored" (fun () -> ()) |> ignore;
  check Alcotest.int "no events recorded" 0 (List.length (Trace.events ()))

let test_trace_records_spans () =
  Trace.enable ();
  let t0 = Trace.start () in
  Trace.complete ~cat:"test" ~args:[ ("k", Trace.Int 3) ] "manual" t0;
  Trace.span ~cat:"test" "scoped" (fun () -> ignore (Sys.opaque_identity 1));
  Trace.instant ~cat:"test" "marker";
  Trace.disable ();
  let events = Trace.events () in
  check Alcotest.int "three events" 3 (List.length events);
  let find name = List.find (fun e -> e.Trace.name = name) events in
  let manual = find "manual" in
  check Alcotest.bool "complete phase" true (manual.Trace.ph = 'X');
  check Alcotest.bool "args kept" true (manual.Trace.args = [ ("k", Trace.Int 3) ]);
  check Alcotest.bool "instant phase" true ((find "marker").Trace.ph = 'i');
  check Alcotest.bool "durations non-negative" true
    (List.for_all (fun e -> e.Trace.dur >= 0) events);
  (* sorted by start time *)
  let ts = List.map (fun e -> e.Trace.ts) events in
  check Alcotest.bool "sorted by ts" true (List.sort compare ts = ts)

let test_trace_span_records_on_exception () =
  Trace.enable ();
  (try Trace.span ~cat:"test" "raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  Trace.disable ();
  check Alcotest.bool "span recorded despite raise" true
    (List.exists (fun e -> e.Trace.name = "raises") (Trace.events ()))

let test_trace_ring_overwrites_oldest () =
  (* 16 is the smallest ring the recorder accepts *)
  Trace.enable ~capacity:16 ();
  for i = 0 to 39 do
    Trace.instant ~args:[ ("i", Trace.Int i) ] "tick"
  done;
  Trace.disable ();
  let events = Trace.events () in
  check Alcotest.int "capacity retained" 16 (List.length events);
  check Alcotest.int "dropped counted" 24 (Trace.dropped ());
  (* the survivors are the newest ones *)
  check Alcotest.bool "oldest overwritten" true
    (List.for_all
       (fun e ->
         match e.Trace.args with
         | [ ("i", Trace.Int i) ] -> i >= 24
         | _ -> false)
       events)

let test_null_sink_no_allocation () =
  Trace.disable ();
  Metrics.disable ();
  let c = Metrics.counter "nulltest.counter" in
  let h = Metrics.histogram "nulltest.hist" in
  (* warm up so any one-time setup is out of the measured window *)
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Trace.start ()));
    Metrics.incr c;
    Metrics.observe h 1
  done;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    let t0 = Trace.start () in
    if Trace.enabled () then
      Trace.complete ~args:[ ("i", Trace.Int i) ] "never" t0;
    Metrics.incr c;
    Metrics.add c 2;
    Metrics.observe h i
  done;
  let words = Gc.minor_words () -. before in
  (* one flag read and a branch per call: allow a small slack for any
     boxing the compiler emits, but nothing proportional to the 10k
     iterations *)
  if words > 256.0 then
    Alcotest.failf "disabled path allocated %.0f minor words over 10k calls"
      words

(* ---- Metrics ---- *)

let test_metrics_counter () =
  let r = Metrics.create () in
  Metrics.enable ();
  let c = Metrics.counter ~registry:r "c" in
  Metrics.incr c;
  Metrics.add c 4;
  check Alcotest.int "accumulates" 5 (Metrics.counter_value c);
  let c' = Metrics.counter ~registry:r "c" in
  Metrics.incr c';
  check Alcotest.int "same name, same instrument" 6 (Metrics.counter_value c);
  Metrics.disable ();
  Metrics.incr c;
  check Alcotest.int "disabled updates ignored" 6 (Metrics.counter_value c)

let test_metrics_histogram_buckets () =
  let r = Metrics.create () in
  Metrics.enable ();
  let h = Metrics.histogram ~registry:r ~buckets:[| 0; 10; 100 |] "h" in
  List.iter (Metrics.observe h) [ -5; 0; 1; 10; 11; 1000 ];
  Metrics.disable ();
  check Alcotest.int "count" 6 (Metrics.histogram_count h);
  check Alcotest.int "sum" 1017 (Metrics.histogram_sum h);
  let json = Metrics.to_json ~registry:r () in
  let buckets =
    match
      Option.bind (Json.member "histograms" json) (Json.member "h")
      |> Fun.flip Option.bind (Json.member "buckets")
    with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "missing buckets"
  in
  let counts =
    List.map
      (fun b ->
        match Json.member "count" b with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.fail "bucket without count")
      buckets
  in
  (* le 0 gets {-5, 0}; le 10 gets {1, 10}; le 100 gets {11}; +Inf {1000} *)
  check (Alcotest.list Alcotest.int) "per-bucket counts" [ 2; 2; 1; 1 ] counts

let test_metrics_kind_mismatch () =
  let r = Metrics.create () in
  ignore (Metrics.counter ~registry:r "name");
  (try
     ignore (Metrics.histogram ~registry:r "name");
     Alcotest.fail "histogram over counter name accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Metrics.gauge ~registry:r "name");
    Alcotest.fail "gauge over counter name accepted"
  with Invalid_argument _ -> ()

let test_metrics_reset () =
  let r = Metrics.create () in
  Metrics.enable ();
  let c = Metrics.counter ~registry:r "c" in
  let h = Metrics.histogram ~registry:r "h" in
  Metrics.add c 7;
  Metrics.observe h 3;
  Metrics.reset ~registry:r ();
  check Alcotest.int "counter zeroed" 0 (Metrics.counter_value c);
  check Alcotest.int "histogram zeroed" 0 (Metrics.histogram_count h);
  Metrics.incr c;
  Metrics.disable ();
  check Alcotest.int "handle survives reset" 1 (Metrics.counter_value c)

let test_metrics_single_sample_std () =
  (* the Stats.std single-sample guard, through the histogram export *)
  let r = Metrics.create () in
  Metrics.enable ();
  Metrics.observe (Metrics.histogram ~registry:r "h") 5;
  Metrics.disable ();
  match
    Option.bind (Json.member "histograms" (Metrics.to_json ~registry:r ()))
      (Json.member "h")
    |> Fun.flip Option.bind (Json.member "std")
  with
  | Some (Json.Float f) ->
      check Alcotest.bool "std finite" true (Float.is_finite f);
      check (Alcotest.float 1e-9) "std zero" 0.0 f
  | Some (Json.Int 0) -> ()
  | _ -> Alcotest.fail "missing std"

let test_metrics_record_diag () =
  let r = Metrics.create () in
  Metrics.disable ();
  (* not gated on enabled: diagnostics count even before --metrics parsing *)
  Metrics.record_diag ~registry:r
    (Diag.warning ~source:"t.hgr" Diag.Singleton_net "dropped");
  Metrics.record_diag ~registry:r
    (Diag.warning ~source:"t.hgr" Diag.Singleton_net "dropped");
  Metrics.record_diag ~registry:r
    (Diag.error ~source:"t.hgr" Diag.Truncated "short");
  let counters = Json.member "counters" (Metrics.to_json ~registry:r ()) in
  let count name =
    match Option.bind counters (Json.member name) with
    | Some (Json.Int n) -> n
    | _ -> 0
  in
  check Alcotest.int "warnings counted" 2 (count "diag.warning.singleton-net");
  check Alcotest.int "errors counted" 1 (count "diag.error.truncated")

(* ---- export schemas ---- *)

(* Run one pooled multistart with both subsystems live; every schema and
   determinism test below reuses this entry point. *)
let run_pipeline ?pool seed =
  let h = instance seed in
  fst
    (Mlpart_util.Multistart.best ?pool ~starts:3
       ~cut:(fun r -> r.Ml.cut)
       (fun rng -> Ml.run ~config:Ml.mlc rng h)
       (Rng.create 97))

let test_trace_export_schema () =
  Metrics.disable ();
  Trace.enable ();
  ignore (run_pipeline 5);
  Trace.disable ();
  let json =
    match Json.of_string (Trace.export ()) with
    | Ok v -> v
    | Error e -> Alcotest.failf "trace export does not reparse: %s" e
  in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  check Alcotest.bool "has displayTimeUnit" true
    (Json.member "displayTimeUnit" json = Some (Json.Str "ms"));
  (match Option.bind (Json.member "otherData" json) (Json.member "dropped") with
  | Some (Json.Int n) -> check Alcotest.bool "dropped non-negative" true (n >= 0)
  | _ -> Alcotest.fail "otherData.dropped missing");
  let str_field e k =
    match Json.member k e with
    | Some (Json.Str s) -> s
    | _ -> Alcotest.failf "event missing string field %s" k
  in
  let has_num e k =
    match Json.member k e with
    | Some (Json.Int _) | Some (Json.Float _) -> true
    | _ -> false
  in
  List.iter
    (fun e ->
      ignore (str_field e "name");
      ignore (str_field e "cat");
      let ph = str_field e "ph" in
      check Alcotest.bool "known phase" true (ph = "X" || ph = "i");
      List.iter
        (fun k ->
          if not (has_num e k) then Alcotest.failf "event missing %s" k)
        [ "ts"; "pid"; "tid" ])
    events;
  let names = List.map (fun e -> str_field e "name") events in
  List.iter
    (fun required ->
      if not (List.mem required names) then
        Alcotest.failf "trace lacks %s span" required)
    [ "coarsen/level"; "fm/pass"; "ml/coarsen"; "ml/initial"; "ml/refine_level" ]

let test_metrics_export_schema () =
  Trace.disable ();
  Metrics.reset ();
  Metrics.enable ();
  ignore (run_pipeline 5);
  Metrics.disable ();
  let json =
    match Json.of_string (Metrics.export ()) with
    | Ok v -> v
    | Error e -> Alcotest.failf "metrics export does not reparse: %s" e
  in
  let section name =
    match Json.member name json with
    | Some (Json.Obj kvs) -> kvs
    | _ -> Alcotest.failf "%s section missing" name
  in
  let counters = section "counters" in
  ignore (section "gauges");
  let histograms = section "histograms" in
  let counter name =
    match List.assoc_opt name counters with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "counter %s missing" name
  in
  check Alcotest.bool "fm ran" true (counter "fm.passes" >= 1);
  check Alcotest.bool "coarsening ran" true (counter "coarsen.levels" >= 1);
  check Alcotest.bool "runs counted" true (counter "ml.runs" = 3);
  (* sections are sorted by name — the export is deterministic text *)
  let keys = List.map fst counters in
  check Alcotest.bool "counters sorted" true (List.sort compare keys = keys);
  List.iter
    (fun (name, h) ->
      let num k =
        match Json.member k h with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.failf "%s: %s missing" name k
      in
      let buckets =
        match Json.member "buckets" h with
        | Some (Json.List l) -> l
        | _ -> Alcotest.failf "%s: buckets missing" name
      in
      let total =
        List.fold_left
          (fun acc b ->
            match Json.member "count" b with
            | Some (Json.Int n) -> acc + n
            | _ -> Alcotest.failf "%s: bucket count missing" name)
          0 buckets
      in
      check Alcotest.int (name ^ " buckets sum to count") (num "count") total;
      match Json.member "std" h with
      | Some (Json.Float f) ->
          check Alcotest.bool (name ^ " std finite") true (Float.is_finite f)
      | Some (Json.Int _) -> ()
      | _ -> Alcotest.failf "%s: std missing" name)
    histograms

(* ---- determinism across --jobs ---- *)

let string_of_arg = function
  | Trace.Int i -> string_of_int i
  | Trace.Float f -> Printf.sprintf "%.12g" f
  | Trace.Str s -> s
  | Trace.Bool b -> string_of_bool b

(* Canonical multiset of events: (name, cat, args) rendered to strings and
   sorted.  Timestamps, durations and domain ids are scheduling-dependent
   and excluded; pool.* events describe the schedule itself, so they are
   excluded too. *)
let event_signature () =
  Trace.events ()
  |> List.filter (fun e -> e.Trace.cat <> "pool")
  |> List.map (fun e ->
         Printf.sprintf "%s|%s|%s" e.Trace.cat e.Trace.name
           (String.concat ","
              (List.map
                 (fun (k, v) -> k ^ "=" ^ string_of_arg v)
                 e.Trace.args)))
  |> List.sort compare

let metrics_signature () =
  let strip = function
    | Json.Obj kvs ->
        Json.Obj
          (List.filter
             (fun (k, _) ->
               not (String.length k >= 5 && String.sub k 0 5 = "pool."))
             kvs)
    | v -> v
  in
  match Metrics.to_json () with
  | Json.Obj sections ->
      Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, strip v)) sections))
  | v -> Json.to_string v

(* The round-based stages emit one span per synchronous round.  Assert
   coverage and schema stability: both span kinds present on a pooled run
   (instance crosses rounds_min_modules so the refinement pre-pass fires),
   fixed arg-key sets, and a ring large enough that nothing was dropped. *)
let test_round_span_coverage () =
  let arg_keys e = List.map fst e.Trace.args in
  let spans_of name events =
    List.filter (fun e -> e.Trace.name = name) events
  in
  let run_traced pool =
    Trace.enable ();
    ignore (Ml.run ~config:Ml.mlc ?pool (Rng.create 53) (instance 52));
    let events = Trace.events () in
    let dropped = Trace.dropped () in
    Trace.disable ();
    (events, dropped)
  in
  let events, dropped =
    Pool.with_pool ~jobs:4 (fun pool -> run_traced (Some pool))
  in
  check Alcotest.int "no dropped events" 0 dropped;
  let coarsen = spans_of "coarsen/round" events in
  let refine = spans_of "refine/round" events in
  check Alcotest.bool "coarsen/round present" true (coarsen <> []);
  check Alcotest.bool "refine/round present" true (refine <> []);
  List.iter
    (fun e ->
      check Alcotest.string "coarsen cat" "coarsen" e.Trace.cat;
      check
        Alcotest.(list string)
        "coarsen/round arg schema"
        [ "round"; "active"; "committed" ]
        (arg_keys e))
    coarsen;
  List.iter
    (fun e ->
      check Alcotest.string "refine cat" "refine" e.Trace.cat;
      check
        Alcotest.(list string)
        "refine/round arg schema"
        [ "round"; "candidates"; "committed" ]
        (arg_keys e))
    refine;
  (* the same rounds run sequentially — the spans are a property of the
     algorithm, not of the schedule *)
  let seq_events, seq_dropped = run_traced None in
  check Alcotest.int "no dropped events (sequential)" 0 seq_dropped;
  check Alcotest.int "same coarsen/round count" (List.length coarsen)
    (List.length (spans_of "coarsen/round" seq_events));
  check Alcotest.int "same refine/round count" (List.length refine)
    (List.length (spans_of "refine/round" seq_events))

let test_determinism_across_jobs () =
  let observe pool =
    Trace.enable ();
    Metrics.reset ();
    Metrics.enable ();
    let result = run_pipeline ?pool 11 in
    Trace.disable ();
    Metrics.disable ();
    (result.Ml.cut, event_signature (), metrics_signature ())
  in
  let cut1, events1, metrics1 = observe None in
  let cut4, events4, metrics4 =
    Pool.with_pool ~jobs:4 (fun pool -> observe (Some pool))
  in
  check Alcotest.int "same cut" cut1 cut4;
  check Alcotest.int "same event count" (List.length events1)
    (List.length events4);
  List.iter2
    (fun a b -> if a <> b then Alcotest.failf "event mismatch: %s vs %s" a b)
    events1 events4;
  check Alcotest.string "same metrics" metrics1 metrics4

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "floats" `Quick test_json_floats;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is null sink" `Quick
            test_trace_disabled_is_null;
          Alcotest.test_case "records spans" `Quick test_trace_records_spans;
          Alcotest.test_case "span survives exception" `Quick
            test_trace_span_records_on_exception;
          Alcotest.test_case "ring overwrites oldest" `Quick
            test_trace_ring_overwrites_oldest;
          Alcotest.test_case "null sink allocation-free" `Quick
            test_null_sink_no_allocation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_metrics_counter;
          Alcotest.test_case "histogram buckets" `Quick
            test_metrics_histogram_buckets;
          Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
          Alcotest.test_case "reset" `Quick test_metrics_reset;
          Alcotest.test_case "single-sample std" `Quick
            test_metrics_single_sample_std;
          Alcotest.test_case "record_diag" `Quick test_metrics_record_diag;
        ] );
      ( "export",
        [
          Alcotest.test_case "trace schema" `Quick test_trace_export_schema;
          Alcotest.test_case "metrics schema" `Quick test_metrics_export_schema;
          Alcotest.test_case "round span coverage" `Quick
            test_round_span_coverage;
          Alcotest.test_case "deterministic across jobs" `Slow
            test_determinism_across_jobs;
        ] );
    ]
