(* Unit and property tests for Mlpart_util: Rng, Stats, Tab, Pool, Multistart,
   Heapsort. *)

module Rng = Mlpart_util.Rng
module Stats = Mlpart_util.Stats
module Tab = Mlpart_util.Tab

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check Alcotest.bool "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_copy_independent () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* advancing [a] must not advance [b] *)
  let b1 = Rng.bits64 b and b2 = Rng.bits64 b in
  check Alcotest.bool "copy advances on its own" true (b1 <> b2)

let test_rng_split_differs () =
  let a = Rng.create 3 in
  let b = Rng.split a in
  check Alcotest.bool "split stream differs from parent" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_rng_stream_deterministic () =
  (* equal state + equal index => equal stream, any draw order *)
  let a = Rng.stream (Rng.create 7) 4 and b = Rng.stream (Rng.create 7) 4 in
  for _ = 1 to 50 do
    check Alcotest.int64 "same substream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_stream_does_not_advance_parent () =
  let t = Rng.create 7 in
  let before = Rng.bits64 (Rng.copy t) in
  ignore (Rng.stream t 3);
  ignore (Rng.stream t 100);
  check Alcotest.int64 "parent stream untouched" before (Rng.bits64 t)

let test_rng_stream_indices_differ () =
  let t = Rng.create 7 in
  let seen = Hashtbl.create 64 in
  for i = 0 to 63 do
    let v = Rng.bits64 (Rng.stream t i) in
    check Alcotest.bool
      (Printf.sprintf "stream %d distinct" i)
      false (Hashtbl.mem seen v);
    Hashtbl.replace seen v ()
  done

let test_rng_stream_negative_rejected () =
  check Alcotest.bool "negative index raises" true
    (match Rng.stream (Rng.create 1) (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_rng_int_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_covers_range () =
  let rng = Rng.create 5 in
  let seen = Array.make 7 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 7) <- true
  done;
  check Alcotest.bool "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_float_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let test_rng_bool_balanced () =
  let rng = Rng.create 13 in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool rng then incr trues
  done;
  check Alcotest.bool "roughly fair" true (!trues > 4500 && !trues < 5500)

let test_rng_permutation () =
  let rng = Rng.create 21 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check
    Alcotest.(array int)
    "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_shuffle_multiset () =
  let rng = Rng.create 22 in
  let a = Array.init 20 (fun i -> i mod 5) in
  let original = Array.copy a in
  Rng.shuffle_in_place rng a;
  Array.sort compare a;
  Array.sort compare original;
  check Alcotest.(array int) "multiset preserved" original a

let prop_rng_int_in_bound =
  QCheck.Test.make ~name:"rng int within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

(* ---- Stats ---- *)

let test_stats_empty_raises () =
  let s = Stats.create () in
  Alcotest.check_raises "min on empty"
    (Invalid_argument "Stats.min: empty accumulator") (fun () ->
      ignore (Stats.min s))

let test_stats_single () =
  let s = Stats.of_list [ 5.0 ] in
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 5.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.max s);
  (* a single sample must give std = 0, never nan *)
  check (Alcotest.float 1e-9) "std" 0.0 (Stats.stddev s);
  check (Alcotest.float 1e-9) "std alias" 0.0 (Stats.std s);
  check Alcotest.bool "std is finite" true (Float.is_finite (Stats.std s))

let test_stats_std_of_moments () =
  (* one sample: n < 2 guard, not nan *)
  let s1 = Stats.std_of_moments ~n:1 ~sum:5.0 ~sumsq:25.0 in
  check (Alcotest.float 1e-9) "single-sample moments" 0.0 s1;
  check Alcotest.bool "finite" true (Float.is_finite s1);
  (* identical samples: cancellation leaves at most rounding noise, and a
     slightly negative variance is clamped rather than producing nan *)
  let s = Stats.std_of_moments ~n:3 ~sum:0.3 ~sumsq:0.03 in
  check Alcotest.bool "identical samples finite" true (Float.is_finite s);
  check (Alcotest.float 1e-6) "identical samples near zero" 0.0 s;
  (* known population std: {2,4,4,4,5,5,7,9} has std 2 *)
  check (Alcotest.float 1e-9) "known population" 2.0
    (Stats.std_of_moments ~n:8 ~sum:40.0 ~sumsq:232.0)

let test_stats_known () =
  let s = Stats.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "std" 2.0 (Stats.stddev s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.max s);
  check Alcotest.int "count" 8 (Stats.count s)

let test_stats_summary () =
  let s = Stats.of_list [ 1.0; 3.0 ] in
  check Alcotest.string "summary format" "1.0/2.0/1.0" (Stats.summary s);
  check Alcotest.string "empty summary" "(empty)" (Stats.summary (Stats.create ()))

let prop_stats_matches_naive =
  QCheck.Test.make ~name:"welford matches naive mean/std" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.of_list xs in
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. n
      in
      abs_float (Stats.mean s -. mean) < 1e-6 *. (1.0 +. abs_float mean)
      && abs_float (Stats.stddev s -. sqrt var) < 1e-6 *. (1.0 +. sqrt var))

(* ---- Tab ---- *)

let test_tab_alignment () =
  let s = Tab.render ~header:[ "name"; "value" ] [ [ "x"; "1" ]; [ "longer"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: _sep :: row1 :: _ ->
      check Alcotest.string "header padded" "name    value" header;
      check Alcotest.string "row right-aligned" "x           1" row1
  | _ -> Alcotest.fail "unexpected shape")

let test_tab_short_rows_padded () =
  let s = Tab.render ~header:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  check Alcotest.bool "renders without exception" true (String.length s > 0)

let test_tab_custom_alignment () =
  let s =
    Tab.render
      ~align:[ Tab.Right; Tab.Left ]
      ~header:[ "n"; "label" ]
      [ [ "1"; "x" ] ]
  in
  check Alcotest.bool "right-aligned first column" true
    (String.length s > 0 && s.[0] = 'n')

let test_tab_formatters () =
  check Alcotest.string "fi" "42" (Tab.fi 42);
  check Alcotest.string "ff1" "3.1" (Tab.ff1 3.14);
  check Alcotest.string "ff2" "3.14" (Tab.ff2 3.14159)

(* ---- Pool ---- *)

module Pool = Mlpart_util.Pool

let test_pool_reuse () =
  Pool.with_pool ~jobs:4 (fun pool ->
      check Alcotest.int "size" 4 (Pool.size pool);
      let n = 1000 in
      let out = Array.make n 0 in
      let fill f =
        Pool.parallel_chunks pool ~n ~body:(fun ~slot:_ ~lo ~hi ->
            for i = lo to hi - 1 do
              out.(i) <- f i
            done)
      in
      fill (fun i -> i * i);
      for i = 0 to n - 1 do
        if out.(i) <> i * i then Alcotest.failf "slot %d not written" i
      done;
      (* reuse of the same pool for a second job *)
      fill Fun.id;
      check Alcotest.int "second job" 999 out.(n - 1))

let test_pool_map_order () =
  (* result order is input order regardless of pool size *)
  let input = Array.init 257 (fun i -> i) in
  let seq = Array.map (fun i -> (i * 7) mod 64) input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let got = Pool.map pool (fun i -> (i * 7) mod 64) input in
          check
            Alcotest.(array int)
            (Printf.sprintf "map order jobs=%d" jobs)
            seq got))
    [ 1; 2; 4 ]

(* A [parallel_chunks] body that raises [Failure msg] on the chunk holding
   index [at] of [0, n). *)
let chunks_failing_at pool ~n ~at msg =
  Pool.parallel_chunks pool ~n ~body:(fun ~slot:_ ~lo ~hi ->
      if lo <= at && at < hi then failwith msg)

let test_pool_exception_propagates () =
  Pool.with_pool ~jobs:2 (fun pool ->
      match chunks_failing_at pool ~n:1000 ~at:500 "boom" with
      | () -> Alcotest.fail "expected exception"
      | exception Failure msg -> check Alcotest.string "message" "boom" msg);
  (* pool stays usable after shutdown of the failed one: fresh pool runs *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let out = Pool.map pool (fun x -> x + 1) [| 1; 2; 3 |] in
      check Alcotest.(array int) "fresh pool works" [| 2; 3; 4 |] out)

let test_pool_exception_no_deadlock_and_reusable () =
  (* a raising body must neither hang run_job nor poison the SAME pool for
     subsequent jobs *)
  Pool.with_pool ~jobs:2 (fun pool ->
      (match chunks_failing_at pool ~n:1000 ~at:517 "chunk boom" with
      | () -> Alcotest.fail "expected exception"
      | exception Failure msg -> check Alcotest.string "message" "chunk boom" msg);
      (* the same pool instance accepts and completes the next job *)
      let out = Pool.map pool (fun x -> x * 3) [| 1; 2; 3; 4 |] in
      check Alcotest.(array int) "same pool reusable" [| 3; 6; 9; 12 |] out;
      (match
         Pool.map pool (fun x -> if x = 2 then raise Exit else x) [| 1; 2 |]
       with
      | _ -> Alcotest.fail "expected Exit"
      | exception Exit -> ());
      let total =
        Array.fold_left ( + ) 0 (Pool.map pool Fun.id (Array.init 10 succ))
      in
      check Alcotest.int "map after failures" 55 total)

let test_pool_cancellation_skips_chunks () =
  (* once the first chunk raises, the cancellation flag stops the others:
     far fewer than the 64 chunks of [0, 100_000) execute, though every
     chunk but the first would run to completion *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let executed = Atomic.make 0 in
      let n = 100_000 in
      let nchunks = Array.length (Pool.chunk_bounds ~n) in
      (match
         Pool.parallel_chunks pool ~n ~body:(fun ~slot:_ ~lo ~hi:_ ->
             ignore (Atomic.fetch_and_add executed 1);
             if lo = 0 then failwith "cancel now" else Unix.sleepf 0.001)
       with
      | () -> Alcotest.fail "expected exception"
      | exception Failure _ -> ());
      let ran = Atomic.get executed in
      check Alcotest.bool
        (Printf.sprintf "executed %d of %d chunks" ran nchunks)
        true
        (ran < nchunks / 2))

module Deadline = Mlpart_util.Deadline

let test_deadline_latches () =
  let dl = Deadline.make ~seconds:3600.0 in
  check Alcotest.bool "not yet expired" false (Deadline.check dl);
  check Alcotest.bool "expired agrees" false (Deadline.expired dl);
  check Alcotest.bool "remaining positive" true (Deadline.remaining dl > 0.0)

let test_deadline_pre_expired () =
  let dl = Deadline.make ~seconds:0.0 in
  check Alcotest.bool "zero budget expires" true (Deadline.check dl);
  check Alcotest.bool "stays expired" true (Deadline.expired dl);
  check Alcotest.bool "latched" true (Deadline.check dl);
  check Alcotest.bool "no time left" true (Deadline.remaining dl <= 0.0);
  let neg = Deadline.make ~seconds:(-5.0) in
  check Alcotest.bool "negative budget expires" true (Deadline.check neg)

(* ---- Multistart ---- *)

module Multistart = Mlpart_util.Multistart

(* A start's "result" is its generator's first draw, so every start is
   identifiable; cut = draw mod 5 makes ties common. *)
let draw rng = Rng.int rng 1_000_000
let by_mod5 x = x mod 5

let test_multistart_lowest_index_wins () =
  let rng = Rng.create 3 in
  let draws = Array.init 12 (fun _ -> draw (Rng.split rng)) in
  let expected =
    Array.fold_left
      (fun best x -> if by_mod5 x < by_mod5 best then x else best)
      draws.(0) draws
  in
  let best, completed =
    Multistart.best ~starts:12 ~cut:by_mod5 draw (Rng.create 3)
  in
  check Alcotest.int "all starts completed" 12 completed;
  check Alcotest.int "lowest cut, first index" expected best

let test_multistart_pool_identical () =
  let seq = Multistart.best ~starts:9 ~cut:by_mod5 draw (Rng.create 5) in
  Pool.with_pool ~jobs:3 (fun pool ->
      let par = Multistart.best ~pool ~starts:9 ~cut:by_mod5 draw (Rng.create 5) in
      check Alcotest.(pair int int) "pool changes nothing" seq par;
      let dl = Deadline.make ~seconds:3600.0 in
      let timed =
        Multistart.best ~pool ~deadline:dl ~starts:9 ~cut:by_mod5 draw
          (Rng.create 5)
      in
      check Alcotest.(pair int int) "unexpired waves change nothing" seq timed)

let test_multistart_expired_deadline () =
  (* an expired deadline still completes the first start (or the first pool
     wave) and nothing after it *)
  let dl = Deadline.make ~seconds:0.0 in
  let first = draw (Rng.split (Rng.create 7)) in
  check Alcotest.(pair int int) "first start only" (first, 1)
    (Multistart.best ~deadline:dl ~starts:8 ~cut:by_mod5 draw (Rng.create 7));
  Pool.with_pool ~jobs:2 (fun pool ->
      let _, completed =
        Multistart.best ~pool ~deadline:dl ~starts:8 ~cut:by_mod5 draw
          (Rng.create 7)
      in
      check Alcotest.int "one wave" 2 completed)

(* Jobs values exercised by the determinism tests; the CI matrix overrides
   the default through MLPART_TEST_JOBS so the suite runs both sequential
   and multi-domain schedules. *)
let test_jobs_list () =
  match Sys.getenv_opt "MLPART_TEST_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> [ 1; j; 2 * j ]
      | _ -> [ 1; 2; 4; 8 ])
  | None -> [ 1; 2; 4; 8 ]

let test_pool_chunk_bounds_jobs_invariant () =
  (* chunk boundaries are a pure function of n — verify both the direct
     decomposition and that parallel_chunks visits exactly those bounds for
     every jobs value *)
  List.iter
    (fun n ->
      let expected = Pool.chunk_bounds ~n in
      (* contiguous cover of [0, n) *)
      let covered = ref 0 in
      Array.iter
        (fun (lo, hi) ->
          check Alcotest.int (Printf.sprintf "n=%d contiguous" n) !covered lo;
          check Alcotest.bool (Printf.sprintf "n=%d nonempty" n) true (hi > lo);
          covered := hi)
        expected;
      check Alcotest.int (Printf.sprintf "n=%d covers" n) n !covered;
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              let seen = Array.make (Array.length expected) (-1, -1) in
              Pool.parallel_chunks pool ~n ~body:(fun ~slot:_ ~lo ~hi ->
                  let c = lo / Stdlib.max 1 (snd expected.(0) - fst expected.(0)) in
                  seen.(c) <- (lo, hi));
              check
                Alcotest.(array (pair int int))
                (Printf.sprintf "chunks identical n=%d jobs=%d" n jobs)
                expected seen))
        (test_jobs_list ()))
    [ 1; 63; 64; 65; 1000; 4097; 100_000 ]

let test_pool_parallel_chunks_slots () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let n = 50_000 in
      let hit = Array.make n 0 in
      (* Alcotest's [check] is not domain-safe: record a bad slot in the
         body and assert on the calling domain afterwards. *)
      let bad_slot = Atomic.make false in
      Pool.parallel_chunks pool ~n ~body:(fun ~slot ~lo ~hi ->
          if slot < 0 || slot >= 4 then Atomic.set bad_slot true;
          for i = lo to hi - 1 do
            hit.(i) <- hit.(i) + 1
          done);
      check Alcotest.bool "slots in range" false (Atomic.get bad_slot);
      Array.iteri
        (fun i c -> if c <> 1 then Alcotest.failf "index %d visited %d times" i c)
        hit)

let test_pool_sequential_fallback () =
  Pool.with_pool ~jobs:1 (fun pool ->
      check Alcotest.int "size 1" 1 (Pool.size pool);
      let out = Pool.map pool (fun x -> 2 * x) [| 3; 4 |] in
      check Alcotest.(array int) "sequential map" [| 6; 8 |] out)

(* ---- Heapsort ----

   The packed heapsort against [Array.sort] with the comparators it
   replaces: the CLIP insertion order sorts ids by a gain array, ascending
   for LIFO, descending for FIFO, and equal gains must land exactly where
   [Array.sort] puts them.  Gains are drawn from narrow ranges (heavy ties)
   that include negatives. *)

module Heapsort = Mlpart_util.Heapsort

let clip_order_reference ~fifo gain =
  let ids = Array.init (Array.length gain) Fun.id in
  Array.sort
    (if fifo then fun a b -> Int.compare gain.(b) gain.(a)
     else fun a b -> Int.compare gain.(a) gain.(b))
    ids;
  ids

let clip_order_packed ~fifo gain =
  let n = Array.length gain in
  let shift = Heapsort.shift_for n in
  let ids =
    Array.init n (fun v ->
        ((if fifo then -gain.(v) else gain.(v)) lsl shift) lor v)
  in
  Heapsort.sort ~shift ~len:n ids;
  Array.map (fun x -> x land ((1 lsl shift) - 1)) ids

let test_heapsort_clip_order () =
  let rng = Rng.create 77 in
  List.iter
    (fun n ->
      for trial = 1 to 60 do
        let spread = [| 1; 2; 3; 8; 100 |].(trial mod 5) in
        let gain = Array.init n (fun _ -> Rng.int rng ((2 * spread) + 1) - spread) in
        List.iter
          (fun fifo ->
            check
              Alcotest.(array int)
              (Printf.sprintf "n=%d trial=%d fifo=%b" n trial fifo)
              (clip_order_reference ~fifo gain)
              (clip_order_packed ~fifo gain))
          [ false; true ]
      done)
    [ 0; 1; 2; 3; 4; 5; 7; 13; 100; 101; 257; 1000 ]

let prop_heapsort_whole_int =
  (* [~shift:0] keys on the whole int, ties included, and sorts only the
     prefix it is given. *)
  QCheck.Test.make ~name:"heapsort whole int" ~count:200
    QCheck.(pair (list (int_range (-20) 20)) small_nat)
    (fun (l, extra) ->
      let a = Array.of_list l in
      let len = Array.length a in
      let padded = Array.append a (Array.make extra 999) in
      let expected = Array.copy a in
      Array.sort Int.compare expected;
      Heapsort.sort ~shift:0 ~len padded;
      Array.sub padded 0 len = expected
      && Array.sub padded len extra = Array.make extra 999)

let test_heapsort_bounds () =
  check Alcotest.(list int) "shift_for" [ 0; 0; 1; 2; 2; 3; 10; 11 ]
    (List.map Heapsort.shift_for [ 0; 1; 2; 3; 4; 5; 1024; 1025 ]);
  let b = max_int asr 10 in
  check Alcotest.bool "bound fits" true (Heapsort.fits ~shift:10 b);
  check Alcotest.bool "negated bound fits" true (Heapsort.fits ~shift:10 (-b));
  check Alcotest.bool "bound + 1 does not" false (Heapsort.fits ~shift:10 (b + 1));
  check Alcotest.bool "min_int does not" false (Heapsort.fits ~shift:0 min_int);
  (* a key at the bound survives the round trip *)
  let x = ((-b) lsl 10) lor 1023 in
  check Alcotest.int "key" (-b) (x asr 10);
  check Alcotest.int "id" 1023 (x land 1023);
  match Heapsort.sort ~shift:0 ~len:3 [| 1; 2 |] with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split differs" `Quick test_rng_split_differs;
          Alcotest.test_case "stream deterministic" `Quick
            test_rng_stream_deterministic;
          Alcotest.test_case "stream leaves parent" `Quick
            test_rng_stream_does_not_advance_parent;
          Alcotest.test_case "stream indices differ" `Quick
            test_rng_stream_indices_differ;
          Alcotest.test_case "stream negative rejected" `Quick
            test_rng_stream_negative_rejected;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bool balanced" `Quick test_rng_bool_balanced;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "shuffle multiset" `Quick test_rng_shuffle_multiset;
          qtest prop_rng_int_in_bound;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
          Alcotest.test_case "single value" `Quick test_stats_single;
          Alcotest.test_case "std of moments" `Quick test_stats_std_of_moments;
          Alcotest.test_case "known dataset" `Quick test_stats_known;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          qtest prop_stats_matches_naive;
        ] );
      ( "tab",
        [
          Alcotest.test_case "alignment" `Quick test_tab_alignment;
          Alcotest.test_case "short rows" `Quick test_tab_short_rows_padded;
          Alcotest.test_case "custom alignment" `Quick test_tab_custom_alignment;
          Alcotest.test_case "formatters" `Quick test_tab_formatters;
        ] );
      ( "pool",
        [
          Alcotest.test_case "reuse" `Quick test_pool_reuse;
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "exception no deadlock, pool reusable" `Quick
            test_pool_exception_no_deadlock_and_reusable;
          Alcotest.test_case "cancellation skips chunks" `Quick
            test_pool_cancellation_skips_chunks;
          Alcotest.test_case "sequential fallback" `Quick
            test_pool_sequential_fallback;
          Alcotest.test_case "chunk bounds jobs-invariant" `Quick
            test_pool_chunk_bounds_jobs_invariant;
          Alcotest.test_case "parallel_chunks covers once" `Quick
            test_pool_parallel_chunks_slots;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "latches" `Quick test_deadline_latches;
          Alcotest.test_case "pre-expired" `Quick test_deadline_pre_expired;
        ] );
      ( "multistart",
        [
          Alcotest.test_case "lowest index wins ties" `Quick
            test_multistart_lowest_index_wins;
          Alcotest.test_case "pool identical" `Quick
            test_multistart_pool_identical;
          Alcotest.test_case "expired deadline" `Quick
            test_multistart_expired_deadline;
        ] );
      ( "heapsort",
        [
          Alcotest.test_case "clip order" `Quick test_heapsort_clip_order;
          qtest prop_heapsort_whole_int;
          Alcotest.test_case "bounds" `Quick test_heapsort_bounds;
        ] );
    ]
