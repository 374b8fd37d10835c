(* Tests of the verification subsystem itself: integrated shrinking,
   replay-token round trips, the exact bipartition/k-way oracles on
   hand-checked fixtures, generator validity, and a small end-to-end
   selfcheck run.  The last test records the tightest bound the oracle
   currently certifies for the multilevel engine — a regression alarm
   if refinement quality ever degrades. *)

module Rng = Mlpart_util.Rng
module H = Mlpart_hypergraph.Hypergraph
module Bp = Mlpart_partition.Bipartition
module Gen = Mlpart_check.Gen
module Property = Mlpart_check.Property
module Hgen = Mlpart_check.Hgen
module Oracle = Mlpart_check.Oracle
module Algos = Mlpart_experiments.Algos
module Selfcheck = Mlpart_check.Selfcheck

(* areas 1..5; optimum {4} vs the rest cuts only the third net *)
let sample () =
  H.make ~areas:[| 1; 2; 3; 4; 5 |]
    ~nets:[| ([| 0; 1 |], 1); ([| 1; 2; 3 |], 2); ([| 0; 3; 4 |], 1) |]
    ()

(* ---- generator core ---- *)

let test_int_range_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    let v = Gen.root (Gen.int_range 3 17) ~size:5 rng in
    Alcotest.(check bool) "in range" true (v >= 3 && v <= 17)
  done

let test_int_shrink_to_boundary () =
  (* the classic: "all ints are < 25" must shrink to exactly 25 *)
  let prop =
    {
      Property.name = "int-lt-25";
      gen = Gen.int_range 0 1000;
      show = string_of_int;
      law =
        (fun x -> if x >= 25 then Property.Fail "not < 25" else Property.Pass);
    }
  in
  let stats = Property.check ~seed:3 prop in
  match stats.Property.failure with
  | None -> Alcotest.fail "expected a counterexample"
  | Some f ->
      Alcotest.(check string) "shrunk to the boundary" "25"
        f.Property.counterexample

let test_bool_shrinks () =
  let t = Gen.generate Gen.bool ~size:0 (Rng.create 1) in
  let shrink_values = List.of_seq (Seq.map (fun c -> c.Gen.value) t.Gen.shrinks) in
  if t.Gen.value then
    Alcotest.(check (list bool)) "true shrinks to false" [ false ] shrink_values
  else Alcotest.(check (list bool)) "false is minimal" [] shrink_values

let test_list_shrink_drops_elements () =
  let prop =
    {
      Property.name = "list-short";
      gen = Gen.list_n (Gen.int_range 0 8) (Gen.int_range 0 9);
      show = (fun l -> String.concat "," (List.map string_of_int l));
      law =
        (fun l ->
          if List.length l >= 3 then Property.Fail "too long" else Property.Pass);
    }
  in
  let stats = Property.check ~seed:5 prop in
  match stats.Property.failure with
  | None -> Alcotest.fail "expected a counterexample"
  | Some f ->
      (* minimal failing list has exactly 3 elements, all shrunk to 0 *)
      Alcotest.(check string) "minimal list" "0,0,0" f.Property.counterexample

(* ---- replay ---- *)

let failing_prop =
  {
    Property.name = "replay/int-lt-25";
    gen = Gen.int_range 0 1000;
    show = string_of_int;
    law = (fun x -> if x >= 25 then Property.Fail "not < 25" else Property.Pass);
  }

let test_replay_token_roundtrip () =
  let stats = Property.check ~seed:9 failing_prop in
  let f = Option.get stats.Property.failure in
  let token = Property.replay_token f in
  (match Property.parse_token token with
  | Some (name, seed, case) ->
      Alcotest.(check string) "name" f.Property.property name;
      Alcotest.(check int) "seed" f.Property.seed seed;
      Alcotest.(check int) "case" f.Property.case case
  | None -> Alcotest.fail "token did not parse");
  (* replaying the token reproduces the identical shrunk counterexample *)
  match
    Property.replay ~seed:f.Property.seed ~case:f.Property.case failing_prop
  with
  | None -> Alcotest.fail "replay passed but the original run failed"
  | Some f' ->
      Alcotest.(check string) "same counterexample" f.Property.counterexample
        f'.Property.counterexample;
      Alcotest.(check string) "same message" f.Property.message
        f'.Property.message;
      Alcotest.(check int) "same shrink walk" f.Property.shrink_steps
        f'.Property.shrink_steps

let test_parse_token_malformed () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "reject %S" s) true
        (Property.parse_token s = None))
    [ ""; "abc"; "a:1"; "a:b:c"; ":1:2"; "a:1:-3" ];
  Alcotest.(check bool) "accept NAME:SEED:CASE" true
    (Property.parse_token "oracle/fm:12:3" = Some ("oracle/fm", 12, 3))

(* ---- exact oracles ---- *)

let test_oracle_bipartition_fixture () =
  let h = sample () in
  match Oracle.bipartition ~bounds:(Bp.bounds h) h with
  | None -> Alcotest.fail "fixture is feasible"
  | Some best ->
      Alcotest.(check int) "optimum cut" 1 best.Oracle.cut;
      (* module 4 alone on one side; ties resolve to the lowest mask *)
      Alcotest.(check (array int)) "optimum side" [| 1; 1; 1; 1; 0 |]
        best.Oracle.side

let test_oracle_bipartition_fixed () =
  let h = sample () in
  let fixed = [| 0; -1; -1; -1; 0 |] in
  match Oracle.bipartition ~fixed ~bounds:(Bp.bounds h) h with
  | None -> Alcotest.fail "pinned fixture is feasible"
  | Some best ->
      Alcotest.(check int) "pinned optimum cut" 2 best.Oracle.cut;
      Alcotest.(check int) "pin 0 respected" 0 best.Oracle.side.(0);
      Alcotest.(check int) "pin 4 respected" 0 best.Oracle.side.(4)

let test_oracle_bipartition_infeasible () =
  let h = sample () in
  Alcotest.(check bool) "empty bounds yield None" true
    (Oracle.bipartition ~bounds:{ Bp.lo = 1; hi = 0 } h = None)

let test_oracle_bipartition_cap () =
  let areas = Array.make 17 1 in
  let h = H.make ~areas ~nets:[| ([| 0; 16 |], 1) |] () in
  Alcotest.check_raises "17 modules exceed the cap"
    (Invalid_argument "Oracle.bipartition: 17 modules exceeds the 16 cap")
    (fun () -> ignore (Oracle.bipartition ~bounds:{ Bp.lo = 0; hi = 17 } h))

let test_oracle_kway_chain () =
  (* unit-area path of 4 modules: any feasible 2-way split cuts >= 1 *)
  let h =
    H.make ~areas:[| 1; 1; 1; 1 |]
      ~nets:[| ([| 0; 1 |], 1); ([| 1; 2 |], 1); ([| 2; 3 |], 1) |]
      ()
  in
  let bounds = Mlpart_partition.Kpartition.bounds h ~k:2 in
  (match Oracle.kway ~bounds ~k:2 h with
  | None -> Alcotest.fail "chain is feasible"
  | Some best ->
      Alcotest.(check int) "2-way optimum" 1 best.Oracle.cut;
      (* lexicographically-least minimiser: peel off the last module *)
      Alcotest.(check (array int)) "2-way side" [| 0; 0; 0; 1 |]
        best.Oracle.side);
  (* unconstrained, everything lands in part 0 at cut 0 *)
  match Oracle.kway ~k:2 h with
  | None -> Alcotest.fail "unconstrained is feasible"
  | Some best ->
      Alcotest.(check int) "unconstrained optimum" 0 best.Oracle.cut;
      Alcotest.(check (array int)) "all in part 0" [| 0; 0; 0; 0 |]
        best.Oracle.side

let test_oracle_kway_cap () =
  let areas = Array.make 10 1 in
  let h = H.make ~areas ~nets:[| ([| 0; 9 |], 1) |] () in
  Alcotest.check_raises "4^10 exceeds the cap"
    (Invalid_argument "Oracle.kway: 4^10 assignments exceed the 2^18 cap")
    (fun () -> ignore (Oracle.kway ~k:4 h))

(* ---- instance generators ---- *)

let test_hgen_instances_valid () =
  let rng = Rng.create 21 in
  for size = 0 to 14 do
    for _ = 1 to 20 do
      let spec = Gen.root Hgen.instance ~size rng in
      let n = Hgen.num_modules spec in
      Alcotest.(check bool) "within oracle cap" true (n >= 2 && n <= 16);
      let h = Hgen.build spec in
      Alcotest.(check bool)
        (Printf.sprintf "valid: %s" (Hgen.show spec))
        true
        (H.validate h = Ok ())
    done
  done

let test_hgen_shrinks_valid () =
  let rng = Rng.create 22 in
  for _ = 1 to 50 do
    let spec = Gen.root Hgen.instance ~size:10 rng in
    Seq.iter
      (fun spec' ->
        Alcotest.(check bool)
          (Printf.sprintf "shrink stays valid: %s" (Hgen.show spec'))
          true
          (Hgen.num_modules spec' >= 2 && H.validate (Hgen.build spec') = Ok ()))
      (Hgen.shrink spec)
  done

(* Shrinking used to leak sub-2-pin nets: dropping the last module could
   leave a net with one pin, and net-drop candidates skipped renormalizing
   entirely.  Every candidate now passes through [normalize]; pin the
   invariant directly on a spec built to trigger every degenerate shape. *)
let test_hgen_normalize_restores_invariant () =
  let dirty =
    {
      Hgen.label = "dirty";
      areas = [| 1; 1; 1; 1 |];
      nets =
        [|
          ([||], 2) (* zero pins *);
          ([| 2 |], 1) (* one pin *);
          ([| 3; 3 |], 1) (* duplicates collapse to one pin *);
          ([| 2; 0; 2 |], 1) (* unsorted with a duplicate *);
          ([| 1; 3 |], 4) (* already fine *);
        |];
    }
  in
  let spec = Hgen.normalize dirty in
  Alcotest.(check int) "degenerate nets dropped" 2 (Array.length spec.Hgen.nets);
  Array.iter
    (fun (pins, _) ->
      Alcotest.(check bool) "at least two pins" true (Array.length pins >= 2);
      for i = 1 to Array.length pins - 1 do
        Alcotest.(check bool) "sorted distinct" true (pins.(i - 1) < pins.(i))
      done)
    spec.Hgen.nets;
  Alcotest.(check bool) "builds a valid hypergraph" true
    (H.validate (Hgen.build spec) = Ok ());
  (* and every shrink of a spec that *can* produce a singleton net after
     module-dropping stays valid *)
  let fragile =
    {
      Hgen.label = "fragile";
      areas = [| 1; 1; 1 |];
      nets = [| ([| 0; 2 |], 1); ([| 1; 2 |], 1); ([| 0; 1 |], 1) |];
    }
  in
  Seq.iter
    (fun spec' ->
      Array.iter
        (fun (pins, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "shrunk net valid: %s" (Hgen.show spec'))
            true
            (Array.length pins >= 2))
        spec'.Hgen.nets)
    (Hgen.shrink fragile)

(* The bipartition oracle indexes a net's first pin; a zero-pin net at the
   end of the store (reachable via make_unchecked on degenerate input) must
   be skipped, not read out of bounds or counted as cut. *)
let test_oracle_zero_pin_net () =
  let spec =
    {
      Hgen.label = "degen";
      areas = [| 1; 1 |];
      nets = [| ([| 0; 1 |], 3); ([||], 5) |];
    }
  in
  let h = Hgen.build_unchecked spec in
  match Oracle.bipartition ~bounds:{ Bp.lo = 1; hi = 1 } h with
  | None -> Alcotest.fail "feasible split not found"
  | Some opt ->
      Alcotest.(check int) "only the real net counts" 3 opt.Oracle.cut

(* ---- end-to-end ---- *)

let test_selfcheck_smoke () =
  let report = Selfcheck.run { Selfcheck.seed = 7; cases = 5; max_size = 8 } in
  Alcotest.(check int) "all properties present" 45
    (List.length report.Selfcheck.props);
  Alcotest.(check int) "no failures"
    0
    (List.length report.Selfcheck.failures)

(* Tightest bound the oracle currently certifies on a fixed 60-case sweep:
   the multilevel engine's cut exceeds the enumerated optimum by at most 7
   (worst case: a plateau where every improving move sequence passes
   through a balance-infeasible intermediate state, so single-move FM
   passes cannot cross it — seen on dup{6 modules, nets over {0,1,3,4}}).
   No correctness bug: cut >= optimum and balance hold on every case; this
   pins the refinement *quality* so a regression is caught here before any
   benchmark notices. *)
let test_ml_oracle_gap_bound () =
  let max_gap = ref 0 in
  for case = 0 to 59 do
    let rng = Rng.stream (Rng.create 1) case in
    let spec = Gen.root Hgen.instance ~size:(case mod 15) rng in
    let h = Hgen.build spec in
    let _, cut =
      (Algos.mlc ~threshold:4 1.0).Algos.run ~tolerance:0.1
        (Rng.create (1000 + case)) h ~k:2
    in
    match Oracle.bipartition ~bounds:(Bp.bounds h) h with
    | None -> Alcotest.fail "engine solved an instance the oracle calls infeasible"
    | Some opt ->
        Alcotest.(check bool)
          (Printf.sprintf "case %d: cut %d >= optimum %d" case cut
             opt.Oracle.cut)
          true
          (cut >= opt.Oracle.cut);
        if cut - opt.Oracle.cut > !max_gap then
          max_gap := cut - opt.Oracle.cut
  done;
  Alcotest.(check bool)
    (Printf.sprintf "max ml-vs-oracle gap %d within the recorded bound 7"
       !max_gap)
    true (!max_gap <= 7)

let () =
  Alcotest.run "check"
    [
      ( "gen",
        [
          Alcotest.test_case "int_range bounds" `Quick test_int_range_bounds;
          Alcotest.test_case "int shrinks to boundary" `Quick
            test_int_shrink_to_boundary;
          Alcotest.test_case "bool shrinks" `Quick test_bool_shrinks;
          Alcotest.test_case "list shrinks drop elements" `Quick
            test_list_shrink_drops_elements;
        ] );
      ( "replay",
        [
          Alcotest.test_case "token roundtrip + determinism" `Quick
            test_replay_token_roundtrip;
          Alcotest.test_case "malformed tokens" `Quick test_parse_token_malformed;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "bipartition fixture" `Quick
            test_oracle_bipartition_fixture;
          Alcotest.test_case "bipartition fixed pins" `Quick
            test_oracle_bipartition_fixed;
          Alcotest.test_case "bipartition infeasible" `Quick
            test_oracle_bipartition_infeasible;
          Alcotest.test_case "bipartition cap" `Quick test_oracle_bipartition_cap;
          Alcotest.test_case "kway chain" `Quick test_oracle_kway_chain;
          Alcotest.test_case "kway cap" `Quick test_oracle_kway_cap;
          Alcotest.test_case "zero-pin net skipped" `Quick
            test_oracle_zero_pin_net;
        ] );
      ( "hgen",
        [
          Alcotest.test_case "instances valid" `Quick test_hgen_instances_valid;
          Alcotest.test_case "shrinks valid" `Quick test_hgen_shrinks_valid;
          Alcotest.test_case "normalize restores invariant" `Quick
            test_hgen_normalize_restores_invariant;
        ] );
      ( "selfcheck",
        [
          Alcotest.test_case "suite smoke" `Quick test_selfcheck_smoke;
          Alcotest.test_case "ml-vs-oracle gap regression bound" `Quick
            test_ml_oracle_gap_bound;
        ] );
    ]
