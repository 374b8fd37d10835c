(* Tests for the Sanchis-style multiway FM engine. *)

module H = Mlpart_hypergraph.Hypergraph
module Kp = Mlpart_partition.Kpartition
module Mw = Mlpart_partition.Multiway
module Rng = Mlpart_util.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let random_instance ?(modules = 100) seed =
  let rng = Rng.create seed in
  Mlpart_gen.Generate.rent ~rng ~modules ~nets:(modules * 5 / 4)
    ~pins:(7 * modules / 2) ()

(* Four 6-module cliques joined in a ring by bridge nets: the natural 4-way
   partition cuts exactly the 4 bridges. *)
let four_cliques () =
  let b = Mlpart_hypergraph.Builder.create ~name:"four-cliques" () in
  Mlpart_hypergraph.Builder.add_modules b 24;
  for c = 0 to 3 do
    let base = 6 * c in
    for v = 0 to 5 do
      for w = v + 1 to 5 do
        Mlpart_hypergraph.Builder.add_net b [ base + v; base + w ]
      done
    done
  done;
  for c = 0 to 3 do
    Mlpart_hypergraph.Builder.add_net b [ 6 * c; 6 * ((c + 1) mod 4) ]
  done;
  Mlpart_hypergraph.Builder.build b

let balanced h k side =
  Kp.is_balanced (Kp.create h ~k side) (Kp.bounds h ~k)

let test_finds_four_cliques () =
  let h = four_cliques () in
  let best = ref max_int in
  for seed = 1 to 6 do
    let r = Mw.run (Rng.create seed) h ~k:4 in
    best := Stdlib.min !best r.Mw.cut
  done;
  check Alcotest.int "optimal 4-way cut" 4 !best

let test_result_consistent_soed () =
  let h = random_instance 1 in
  let r = Mw.run (Rng.create 2) h ~k:4 in
  check Alcotest.int "cut matches recount" (Mw.cut_of h ~k:4 r.Mw.side) r.Mw.cut;
  let kp = Kp.create h ~k:4 r.Mw.side in
  check Alcotest.int "soed matches recount" (Kp.sum_degrees kp) r.Mw.sum_degrees;
  check Alcotest.bool "balanced" true (balanced h 4 r.Mw.side)

let test_result_consistent_netcut () =
  let h = random_instance 3 in
  let config = { Mw.default with objective = Mw.Net_cut } in
  let r = Mw.run ~config (Rng.create 4) h ~k:4 in
  check Alcotest.int "cut matches recount" (Mw.cut_of h ~k:4 r.Mw.side) r.Mw.cut;
  check Alcotest.bool "balanced" true (balanced h 4 r.Mw.side)

let test_k2_matches_bipartition_quality () =
  (* k = 2 multiway should find cuts in the same league as FM. *)
  let h = random_instance 5 in
  let mw = Mw.run ~config:{ Mw.default with objective = Mw.Net_cut }
             (Rng.create 6) h ~k:2 in
  let fm = Mlpart_partition.Fm.run (Rng.create 6) h in
  check Alcotest.bool "within 3x of FM" true
    (mw.Mw.cut <= 3 * Stdlib.max 1 fm.Mlpart_partition.Fm.cut)

let test_fixed_modules_unmoved () =
  let h = random_instance 7 in
  let fixed = Array.make (H.num_modules h) (-1) in
  fixed.(0) <- 2;
  fixed.(5) <- 0;
  fixed.(9) <- 3;
  let r = Mw.run ~fixed (Rng.create 8) h ~k:4 in
  check Alcotest.int "module 0 pinned" 2 r.Mw.side.(0);
  check Alcotest.int "module 5 pinned" 0 r.Mw.side.(5);
  check Alcotest.int "module 9 pinned" 3 r.Mw.side.(9);
  (* An initial assignment that puts every pinned module elsewhere. *)
  let init = Array.init (H.num_modules h) (fun v -> v mod 4) in
  init.(0) <- 1;
  init.(5) <- 3;
  init.(9) <- 0;
  let r = Mw.run ~init ~fixed (Rng.create 8) h ~k:4 in
  check Alcotest.int "module 0 pinned over init" 2 r.Mw.side.(0);
  check Alcotest.int "module 5 pinned over init" 0 r.Mw.side.(5);
  check Alcotest.int "module 9 pinned over init" 3 r.Mw.side.(9)

let test_init_refinement_never_worsens () =
  let h = random_instance 9 in
  let start = Kp.random (Rng.create 10) h ~k:4 in
  let init = Kp.side_array start in
  let r = Mw.run ~init (Rng.create 11) h ~k:4 in
  check Alcotest.bool "no worse than start" true (r.Mw.cut <= Kp.cut start)

let test_rejects_k1 () =
  let h = random_instance 12 in
  (match Mw.run (Rng.create 1) h ~k:1 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let test_deterministic () =
  let h = random_instance 13 in
  let a = Mw.run (Rng.create 14) h ~k:4 and b = Mw.run (Rng.create 14) h ~k:4 in
  check Alcotest.(array int) "same assignment" a.Mw.side b.Mw.side

(* The pass cap, on the shared pass over a gain cache as the n-level
   polish runs it: uncapped it runs several passes from the same start. *)
let test_max_passes () =
  let module Gc = Mlpart_partition.Gain_cache in
  let h = random_instance 24 in
  let k = 4 in
  let start = Kp.side_array (Kp.random (Rng.create 25) h ~k) in
  let passes ?max_passes () =
    let c = Gc.create (Kp.create h ~k start) in
    (Mw.refine ?max_passes ~max_gain:(H.max_weighted_degree h)
       (Mw.create_arena ()) (Rng.create 26) (Kp.bounds h ~k)
       (Gc.partition c)
       {
         Mw.gain = Gc.gain c;
         move = (fun report v q -> Gc.move ~on_delta:report c v q);
         undo = Gc.restore c;
       })
      .Mw.passes
  in
  check Alcotest.int "single pass" 1 (passes ~max_passes:1 ());
  check Alcotest.bool "several uncapped" true (passes () > 1)

let test_custom_objective () =
  (* A custom gain equal to the sum-of-degrees delta must behave exactly
     like Sum_degrees. *)
  let h = random_instance 20 in
  let soed_gain ~weight ~spans_before ~spans_after =
    weight * (spans_before - spans_after)
  in
  let custom = { Mw.default with objective = Mw.Custom soed_gain } in
  let a = Mw.run ~config:custom (Rng.create 21) h ~k:4 in
  let b = Mw.run ~config:Mw.default (Rng.create 21) h ~k:4 in
  check Alcotest.(array int) "same trajectory as Sum_degrees" b.Mw.side a.Mw.side

let test_custom_objective_quadratic () =
  (* A super-linear spans penalty still yields a consistent result. *)
  let h = random_instance 22 in
  let quadratic ~weight ~spans_before ~spans_after =
    weight * ((spans_before * spans_before) - (spans_after * spans_after))
  in
  let config = { Mw.default with objective = Mw.Custom quadratic } in
  let r = Mw.run ~config (Rng.create 23) h ~k:4 in
  check Alcotest.int "cut recount" (Mw.cut_of h ~k:4 r.Mw.side) r.Mw.cut

let prop_consistent_both_objectives =
  QCheck.Test.make ~name:"multiway consistent for both gains and k in 2..5"
    ~count:25
    QCheck.(triple small_int (int_range 2 5) bool)
    (fun (seed, k, soed) ->
      let h = random_instance ~modules:60 seed in
      let config =
        { Mw.default with objective = (if soed then Mw.Sum_degrees else Mw.Net_cut) }
      in
      let r = Mw.run ~config (Rng.create (seed + 20)) h ~k in
      r.Mw.cut = Mw.cut_of h ~k r.Mw.side && balanced h k r.Mw.side)

(* ---- k-way golden answers ----

   The cut and a side checksum of Multiway, Ml_multiway and Nlevel answers
   on Rent netlists with module areas 1..4 and net weights 1..3, including
   pinned modules, given initial assignments and a custom gain.  Any change
   here means a k-way engine's trajectory changed; on a mismatch the test
   prints every actual answer in the table's own syntax. *)

let weighted_instance seed =
  let h = random_instance ~modules:150 seed in
  let rng = Rng.create (seed + 101) in
  let areas = Array.init (H.num_modules h) (fun _ -> 1 + Rng.int rng 4) in
  H.make ~areas
    ~nets:
      (Array.init (H.num_nets h) (fun e -> (H.pins_of h e, 1 + Rng.int rng 3)))
    ()

let checksum side =
  Array.fold_left (fun acc p -> ((acc * 31) + p + 1) land 0x3FFFFFFF) 0 side

(* Net cut plus sum of degrees: within [±2 * weight], so within the
   bucket range for every k >= 2. *)
let cut_plus_soed ~weight ~spans_before ~spans_after =
  let cut s = if s >= 2 then 1 else 0 in
  weight * (spans_before - spans_after + cut spans_before - cut spans_after)

let multiway_cases h =
  let n = H.num_modules h in
  List.concat_map
    (fun k ->
      let fixed =
        Array.init n (fun v -> if v mod 17 = 0 then v / 17 mod k else -1)
      in
      let init = Array.init n (fun v -> v * 7 / 5 mod k) in
      let pinned_init =
        Array.mapi (fun v p -> if fixed.(v) >= 0 then fixed.(v) else p) init
      in
      List.concat_map
        (fun (name, objective) ->
          let config = { Mw.default with objective } in
          let config = { config with tolerance = 0.0 } in
          let run ?init ?fixed seed () =
            let r = Mw.run ~config ?init ?fixed (Rng.create seed) h ~k in
            (r.Mw.side, r.Mw.cut)
          in
          let label v = Printf.sprintf "multiway %s k=%d%s" name k v in
          [
            (label "", run 1);
            (label " fixed", run ~fixed 2);
            (label " init", run ~init 3);
            (label " fixed init", run ~fixed ~init:pinned_init 4);
          ])
        [
          ("cut", Mw.Net_cut);
          ("soed", Mw.Sum_degrees);
          ("custom", Mw.Custom cut_plus_soed);
        ])
    [ 2; 3; 4; 5 ]

let ml_multiway_cases h =
  let module Mlw = Mlpart_multilevel.Ml_multiway in
  let fixed =
    Array.init (H.num_modules h) (fun v -> if v mod 23 = 0 then v mod 4 else -1)
  in
  let run ?fixed seed () =
    let r = Mlw.run ?fixed (Rng.create seed) h ~k:4 in
    (r.Mlw.side, r.Mlw.cut)
  in
  [ ("ml_multiway k=4", run 5); ("ml_multiway k=4 fixed", run ~fixed 6) ]

(* Only seeds and k whose answers lie within [Kp.bounds]. *)
let nlevel_cases () =
  let module Nlevel = Mlpart_multilevel.Nlevel in
  List.map
    (fun (seed, k) ->
      ( Printf.sprintf "nlevel seed %d k=%d" seed k,
        fun () ->
          let r = Nlevel.run (Rng.create 7) (weighted_instance seed) ~k in
          (r.Nlevel.side, r.Nlevel.cut) ))
    [
      (37, 2); (37, 3); (37, 4); (37, 5); (39, 2); (39, 3); (39, 4); (39, 5);
      (33, 4); (36, 4);
    ]

let golden_cases () =
  let h = weighted_instance 31 in
  multiway_cases h @ ml_multiway_cases h @ nlevel_cases ()

let golden =
  [
  ("multiway cut k=2", 67, 649143423);
  ("multiway cut k=2 fixed", 49, 501454919);
  ("multiway cut k=2 init", 64, 453044964);
  ("multiway cut k=2 fixed init", 62, 891667560);
  ("multiway soed k=2", 67, 649143423);
  ("multiway soed k=2 fixed", 49, 501454919);
  ("multiway soed k=2 init", 64, 453044964);
  ("multiway soed k=2 fixed init", 62, 891667560);
  ("multiway custom k=2", 67, 649143423);
  ("multiway custom k=2 fixed", 49, 501454919);
  ("multiway custom k=2 init", 64, 453044964);
  ("multiway custom k=2 fixed init", 62, 891667560);
  ("multiway cut k=3", 77, 231913285);
  ("multiway cut k=3 fixed", 109, 228491275);
  ("multiway cut k=3 init", 80, 210751944);
  ("multiway cut k=3 fixed init", 105, 416193394);
  ("multiway soed k=3", 95, 179105568);
  ("multiway soed k=3 fixed", 93, 753730401);
  ("multiway soed k=3 init", 84, 355882171);
  ("multiway soed k=3 fixed init", 95, 484462527);
  ("multiway custom k=3", 75, 880366280);
  ("multiway custom k=3 fixed", 102, 879489668);
  ("multiway custom k=3 init", 86, 825375963);
  ("multiway custom k=3 fixed init", 99, 972053565);
  ("multiway cut k=4", 79, 895178150);
  ("multiway cut k=4 fixed", 96, 852042081);
  ("multiway cut k=4 init", 113, 272579990);
  ("multiway cut k=4 fixed init", 118, 518218521);
  ("multiway soed k=4", 103, 580173880);
  ("multiway soed k=4 fixed", 113, 136117930);
  ("multiway soed k=4 init", 89, 527320482);
  ("multiway soed k=4 fixed init", 115, 139664941);
  ("multiway custom k=4", 77, 723161450);
  ("multiway custom k=4 fixed", 110, 746098622);
  ("multiway custom k=4 init", 101, 159694536);
  ("multiway custom k=4 fixed init", 91, 239353988);
  ("multiway cut k=5", 133, 518028620);
  ("multiway cut k=5 fixed", 123, 84626721);
  ("multiway cut k=5 init", 131, 975646581);
  ("multiway cut k=5 fixed init", 134, 94999384);
  ("multiway soed k=5", 109, 235457767);
  ("multiway soed k=5 fixed", 126, 776299882);
  ("multiway soed k=5 init", 117, 575879105);
  ("multiway soed k=5 fixed init", 120, 1019607694);
  ("multiway custom k=5", 94, 560093663);
  ("multiway custom k=5 fixed", 114, 1054886683);
  ("multiway custom k=5 init", 103, 228457332);
  ("multiway custom k=5 fixed init", 112, 287808396);
  ("ml_multiway k=4", 82, 209619443);
  ("ml_multiway k=4 fixed", 96, 755811750);
  ("nlevel seed 37 k=2", 47, 762041673);
  ("nlevel seed 37 k=3", 64, 272641567);
  ("nlevel seed 37 k=4", 75, 271759025);
  ("nlevel seed 37 k=5", 71, 450135801);
  ("nlevel seed 39 k=2", 46, 205728801);
  ("nlevel seed 39 k=3", 78, 196793019);
  ("nlevel seed 39 k=4", 91, 554134821);
  ("nlevel seed 39 k=5", 98, 1018514111);
  ("nlevel seed 33 k=4", 70, 266266681);
  ("nlevel seed 36 k=4", 85, 589395007)
  ]

let test_kway_golden () =
  let actual =
    List.map
      (fun (label, run) ->
        let side, cut = run () in
        (label, cut, checksum side))
      (golden_cases ())
  in
  if actual <> golden then
    Alcotest.failf "k-way answers changed; actual:\n%s"
      (String.concat "\n"
         (List.map
            (fun (label, cut, sum) ->
              Printf.sprintf "    (%S, %d, %d);" label cut sum)
            actual))

let () =
  Alcotest.run "multiway"
    [
      ( "multiway",
        [
          Alcotest.test_case "finds four cliques" `Quick test_finds_four_cliques;
          Alcotest.test_case "consistent (soed)" `Quick test_result_consistent_soed;
          Alcotest.test_case "consistent (net cut)" `Quick
            test_result_consistent_netcut;
          Alcotest.test_case "k=2 sane" `Quick test_k2_matches_bipartition_quality;
          Alcotest.test_case "fixed unmoved" `Quick test_fixed_modules_unmoved;
          Alcotest.test_case "refinement monotone" `Quick
            test_init_refinement_never_worsens;
          Alcotest.test_case "rejects k=1" `Quick test_rejects_k1;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "max passes" `Quick test_max_passes;
          Alcotest.test_case "custom objective = soed" `Quick test_custom_objective;
          Alcotest.test_case "custom quadratic objective" `Quick
            test_custom_objective_quadratic;
          qtest prop_consistent_both_objectives;
          Alcotest.test_case "k-way golden answers" `Quick test_kway_golden;
        ] );
    ]
