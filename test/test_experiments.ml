(* Tests for the experiment harness: algorithm wrappers, the measurement
   runner and the published reference data. *)

module Algos = Mlpart_experiments.Algos
module Report = Mlpart_experiments.Report
module Paper = Mlpart_experiments.Paper
module Suite = Mlpart_gen.Suite
module Rng = Mlpart_util.Rng
module Fm = Mlpart_partition.Fm
module Mw = Mlpart_partition.Multiway

let check = Alcotest.check

let tiny () =
  let rng = Rng.create 12 in
  Mlpart_gen.Generate.rent ~rng ~modules:90 ~nets:110 ~pins:330 ()

let engines = Algos.all ()

let twoway = List.filter (fun e -> Algos.accepts e 2) engines

(* Every engine that can quadrisect, as Table IX runs them. *)
let quadrisectors = List.filter (fun e -> Algos.accepts e 4) engines

let test_all_bipartitioners_valid () =
  let h = tiny () in
  List.iter
    (fun algo ->
      let side, cut = algo.Algos.run ~tolerance:0.1 (Rng.create 3) h ~k:2 in
      check Alcotest.int (algo.Algos.name ^ " cut consistent")
        (Fm.cut_of h side) cut)
    twoway

let test_all_quadrisectors_valid () =
  let h = tiny () in
  List.iter
    (fun algo ->
      let side, cut = algo.Algos.run ~tolerance:0.1 (Rng.create 4) h ~k:4 in
      check Alcotest.int (algo.Algos.name ^ " cut consistent")
        (Mw.cut_of h ~k:4 side) cut)
    quadrisectors

let test_algo_names_distinct () =
  let names = List.map (fun a -> a.Algos.name) engines in
  check Alcotest.int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* The rb entry honours --tolerance and the intra-run pool. *)
let test_rb_tolerance () =
  let module Rb = Mlpart_multilevel.Rb in
  let module Ml = Mlpart_multilevel.Ml in
  let h = tiny () in
  let side, cut = Algos.rb.Algos.run ~tolerance:0.3 (Rng.create 8) h ~k:4 in
  let config =
    { Rb.default with
      ml = { Ml.mlc with engine = { Ml.mlc.Ml.engine with Fm.tolerance = 0.3 } } }
  in
  let r = Rb.run ~config (Rng.create 8) h ~k:4 in
  check Alcotest.(array int) "same side as Rb.run at 0.3" r.Rb.side side;
  check Alcotest.int "same cut" r.Rb.cut cut

let test_rb_pool_identical () =
  let h = tiny () in
  let seq = Algos.rb.Algos.run ~tolerance:0.1 (Rng.create 9) h ~k:4 in
  let par =
    Mlpart_util.Pool.with_pool ~jobs:2 (fun pool ->
        Algos.rb.Algos.run ~pool ~tolerance:0.1 (Rng.create 9) h ~k:4)
  in
  check Alcotest.(pair (array int) int) "2-domain pool changes nothing" seq par

let test_measure_aggregates () =
  let h = tiny () in
  let m = Report.measure ~runs:4 ~seed:1 h Algos.flat_fm in
  check Alcotest.int "runs recorded" 4 m.Report.runs;
  check Alcotest.bool "min <= avg" true
    (float_of_int m.Report.min_cut <= m.Report.avg_cut);
  check Alcotest.bool "cpu non-negative" true (m.Report.cpu >= 0.0)

let test_measure_deterministic () =
  let h = tiny () in
  let a = Report.measure ~runs:3 ~seed:9 h Algos.flat_clip in
  let b = Report.measure ~runs:3 ~seed:9 h Algos.flat_clip in
  check Alcotest.int "same min" a.Report.min_cut b.Report.min_cut;
  check (Alcotest.float 1e-9) "same avg" a.Report.avg_cut b.Report.avg_cut

let test_measure_seed_changes_runs () =
  (* Use a high-variance engine (FIFO buckets) on an unstructured netlist so
     that two seeds coinciding on all of min/avg/std is vanishingly
     unlikely; this checks the seed actually reaches the runs. *)
  let rng = Rng.create 77 in
  let h = Mlpart_gen.Generate.random ~rng ~modules:120 ~nets:150 ~pins:450 () in
  let a = Report.measure ~runs:6 ~seed:1 h Algos.flat_fm_fifo in
  let b = Report.measure ~runs:6 ~seed:2 h Algos.flat_fm_fifo in
  check Alcotest.bool "different seeds differ" true
    (a.Report.avg_cut <> b.Report.avg_cut
    || a.Report.min_cut <> b.Report.min_cut
    || a.Report.std_cut <> b.Report.std_cut)

let test_measure_parallel_identical () =
  (* pre-split rng streams make results independent of job count *)
  let h = tiny () in
  let serial = Report.measure ~jobs:1 ~runs:6 ~seed:5 h Algos.flat_fm in
  let parallel = Report.measure ~jobs:3 ~runs:6 ~seed:5 h Algos.flat_fm in
  check Alcotest.int "same min" serial.Report.min_cut parallel.Report.min_cut;
  check (Alcotest.float 1e-9) "same avg" serial.Report.avg_cut
    parallel.Report.avg_cut;
  check (Alcotest.float 1e-9) "same std" serial.Report.std_cut
    parallel.Report.std_cut

let test_measure_jobs4_identical_mlc () =
  (* the full multilevel path through a 4-domain pool: a seeded run with
     jobs=4 must reproduce the jobs=1 cuts exactly *)
  let h = tiny () in
  let serial = Report.measure ~jobs:1 ~runs:8 ~seed:3 h (Algos.mlc 0.5) in
  let parallel = Report.measure ~jobs:4 ~runs:8 ~seed:3 h (Algos.mlc 0.5) in
  check Alcotest.int "same min" serial.Report.min_cut parallel.Report.min_cut;
  check (Alcotest.float 1e-9) "same avg" serial.Report.avg_cut
    parallel.Report.avg_cut;
  check (Alcotest.float 1e-9) "same std" serial.Report.std_cut
    parallel.Report.std_cut

(* ---- 2-way golden answers ----

   The cut and a side checksum of the 2-way registry engines whose code
   lies outside the FM and multilevel goldens, plus the merge-duplicates
   ablation variant, GORDIAN at k = 4 and a top-down placement of balu.
   Inputs are a Rent netlist with module areas 1..4 and net weights 1..3
   and bench:balu, at seeds 1..3.  Any change here means an engine's
   trajectory changed; on a mismatch the test prints every actual answer
   in the table's own syntax. *)

module H = Mlpart_hypergraph.Hypergraph
module Ml = Mlpart_multilevel.Ml

let weighted_rent () =
  let rng = Rng.create 41 in
  let h =
    Mlpart_gen.Generate.rent ~rng ~modules:200 ~nets:250 ~pins:700 ()
  in
  let areas = Array.init (H.num_modules h) (fun _ -> 1 + Rng.int rng 4) in
  H.make ~name:"rent200w" ~areas
    ~nets:
      (Array.init (H.num_nets h) (fun e -> (H.pins_of h e, 1 + Rng.int rng 3)))
    ()

let balu () = Suite.instantiate ~seed:1 (Suite.find "balu")

let checksum side =
  Array.fold_left (fun acc p -> ((acc * 31) + p + 1) land 0x3FFFFFFF) 0 side

let merge_dup =
  Algos.ml "merge-dup"
    { (Ml.with_ratio Ml.mlc 0.5) with Ml.merge_duplicates = true }

let flat_names =
  [ "prop"; "cl-prf"; "kl"; "lsmc"; "ga-fm"; "eig"; "eig-fm"; "cl-la3f";
    "cd-la3f" ]

let ml_names = [ "two-phase"; "vcycles"; "clip" ]

let registry name =
  match Algos.find name with
  | Some e -> e
  | None -> Alcotest.failf "no registry entry %s" name

let twoway_golden_cases () =
  let run_on ?pool (e : Algos.t) h seed ~k =
    let side, cut = e.Algos.run ?pool ~tolerance:0.1 (Rng.create seed) h ~k in
    (cut, checksum side)
  in
  let on_netlist h =
    let label name seed = Printf.sprintf "%s %s seed %d" name (H.name h) seed in
    let seeds = [ 1; 2; 3 ] in
    let flat =
      List.concat_map
        (fun name ->
          List.map
            (fun seed ->
              (label name seed, fun () -> run_on (registry name) h seed ~k:2))
            seeds)
        flat_names
    in
    (* multilevel entries must also answer identically through a pool *)
    let ml =
      List.concat_map
        (fun e ->
          List.map
            (fun seed ->
              ( label e.Algos.name seed,
                fun () ->
                  let seq = run_on e h seed ~k:2 in
                  let par =
                    Mlpart_util.Pool.with_pool ~jobs:2 (fun pool ->
                        run_on ~pool e h seed ~k:2)
                  in
                  if par <> seq then
                    Alcotest.failf "%s: 2-domain pool changed the answer"
                      (label e.Algos.name seed);
                  seq ))
            seeds)
        (List.map registry ml_names @ [ merge_dup ])
    in
    let gordian =
      ( Printf.sprintf "gordian %s k=4" (H.name h),
        fun () -> run_on Algos.gordian h 1 ~k:4 )
    in
    flat @ ml @ [ gordian ]
  in
  on_netlist (weighted_rent ()) @ on_netlist (balu ())

(* Top-down placement answers: region count and the exact HPWL bits. *)
let topdown_golden_cases () =
  let module T = Mlpart_placement.Topdown in
  let h = balu () in
  List.map
    (fun seed ->
      ( Printf.sprintf "topdown balu seed %d" seed,
        fun () ->
          let r = T.run (Rng.create seed) h in
          (r.T.regions, Int64.to_int (Int64.bits_of_float r.T.hpwl)) ))
    [ 1; 2; 3 ]

let twoway_golden =
  [
    ("prop rent200w seed 1", 55, 323942594);
    ("prop rent200w seed 2", 58, 827106114);
    ("prop rent200w seed 3", 61, 942358270);
    ("cl-prf rent200w seed 1", 58, 228029507);
    ("cl-prf rent200w seed 2", 56, 885199713);
    ("cl-prf rent200w seed 3", 54, 1026594848);
    ("kl rent200w seed 1", 78, 887339262);
    ("kl rent200w seed 2", 97, 292441954);
    ("kl rent200w seed 3", 98, 976739167);
    ("lsmc rent200w seed 1", 54, 263338302);
    ("lsmc rent200w seed 2", 54, 223067777);
    ("lsmc rent200w seed 3", 54, 487654272);
    ("ga-fm rent200w seed 1", 54, 921176416);
    ("ga-fm rent200w seed 2", 54, 487654272);
    ("ga-fm rent200w seed 3", 54, 625109822);
    ("eig rent200w seed 1", 90, 573688957);
    ("eig rent200w seed 2", 90, 573688957);
    ("eig rent200w seed 3", 90, 573688957);
    ("eig-fm rent200w seed 1", 59, 1021701409);
    ("eig-fm rent200w seed 2", 59, 1021701409);
    ("eig-fm rent200w seed 3", 59, 1021701409);
    ("cl-la3f rent200w seed 1", 64, 728040452);
    ("cl-la3f rent200w seed 2", 54, 12301793);
    ("cl-la3f rent200w seed 3", 79, 937286452);
    ("cd-la3f rent200w seed 1", 85, 162977597);
    ("cd-la3f rent200w seed 2", 54, 263338302);
    ("cd-la3f rent200w seed 3", 54, 282516546);
    ("two-phase rent200w seed 1", 54, 921176416);
    ("two-phase rent200w seed 2", 54, 117649345);
    ("two-phase rent200w seed 3", 56, 559403840);
    ("vcycles rent200w seed 1", 54, 861727647);
    ("vcycles rent200w seed 2", 54, 487654272);
    ("vcycles rent200w seed 3", 54, 428205503);
    ("clip rent200w seed 1", 54, 428205503);
    ("clip rent200w seed 2", 54, 428205503);
    ("clip rent200w seed 3", 54, 428205503);
    ("merge-dup rent200w seed 1", 54, 861727647);
    ("merge-dup rent200w seed 2", 54, 58200576);
    ("merge-dup rent200w seed 3", 54, 757869025);
    ("gordian rent200w k=4", 231, 131136242);
    ("prop balu seed 1", 44, 826043015);
    ("prop balu seed 2", 45, 45168291);
    ("prop balu seed 3", 44, 77842973);
    ("cl-prf balu seed 1", 44, 141282168);
    ("cl-prf balu seed 2", 45, 894647586);
    ("cl-prf balu seed 3", 44, 868059817);
    ("kl balu seed 1", 63, 416511037);
    ("kl balu seed 2", 157, 582598845);
    ("kl balu seed 3", 52, 598194613);
    ("lsmc balu seed 1", 44, 786244994);
    ("lsmc balu seed 2", 44, 960211363);
    ("lsmc balu seed 3", 44, 278075395);
    ("ga-fm balu seed 1", 44, 717332679);
    ("ga-fm balu seed 2", 44, 960211363);
    ("ga-fm balu seed 3", 44, 530012899);
    ("eig balu seed 1", 150, 370300789);
    ("eig balu seed 2", 150, 370300789);
    ("eig balu seed 3", 150, 370300789);
    ("eig-fm balu seed 1", 45, 276041062);
    ("eig-fm balu seed 2", 45, 276041062);
    ("eig-fm balu seed 3", 45, 276041062);
    ("cl-la3f balu seed 1", 44, 330951671);
    ("cl-la3f balu seed 2", 45, 593199806);
    ("cl-la3f balu seed 3", 44, 1025900960);
    ("cd-la3f balu seed 1", 44, 512996126);
    ("cd-la3f balu seed 2", 44, 65374976);
    ("cd-la3f balu seed 3", 44, 1010278716);
    ("two-phase balu seed 1", 44, 642301379);
    ("two-phase balu seed 2", 44, 369240641);
    ("two-phase balu seed 3", 44, 827837854);
    ("vcycles balu seed 1", 44, 373481703);
    ("vcycles balu seed 2", 44, 1069142245);
    ("vcycles balu seed 3", 44, 153713503);
    ("clip balu seed 1", 44, 367518596);
    ("clip balu seed 2", 44, 49130790);
    ("clip balu seed 3", 44, 835252995);
    ("merge-dup balu seed 1", 44, 189045660);
    ("merge-dup balu seed 2", 44, 667566852);
    ("merge-dup balu seed 3", 44, 1028556769);
    ("gordian balu k=4", 265, 918878267);
    ("topdown balu seed 1", 47, -4580696649702397274);
    ("topdown balu seed 2", 46, -4580724870500843523);
    ("topdown balu seed 3", 50, -4580671727438834352)
  ]

let test_twoway_golden () =
  let actual =
    List.map
      (fun (label, run) ->
        let cut, sum = run () in
        (label, cut, sum))
      (twoway_golden_cases () @ topdown_golden_cases ())
  in
  if actual <> twoway_golden then
    Alcotest.failf "2-way answers changed; actual:\n%s"
      (String.concat "\n"
         (List.map
            (fun (label, cut, sum) ->
              Printf.sprintf "    (%S, %d, %d);" label cut sum)
            actual))

let test_cells () =
  check Alcotest.string "value" "42" (Report.cell (Some 42));
  check Alcotest.string "blank" "-" (Report.cell None);
  check Alcotest.string "fvalue" "1.5" (Report.fcell (Some 1.5))

(* ---- published data ---- *)

let test_paper_table2_complete () =
  List.iter
    (fun spec ->
      if spec.Suite.circuit <> "golem3" then
        check Alcotest.bool
          (spec.Suite.circuit ^ " present in Table II")
          true
          (Paper.table2 spec.Suite.circuit <> None))
    Suite.all

let test_paper_table3_values () =
  match Paper.table3 "golem3" with
  | Some row ->
      let fm_min, clip_min = row.Paper.t3_min in
      check Alcotest.int "golem3 FM min" 2847 fm_min;
      check Alcotest.int "golem3 CLIP min" 2276 clip_min
  | None -> Alcotest.fail "golem3 missing from Table III"

let test_paper_table6_values () =
  match Paper.table6 "golem3" with
  | Some row ->
      let _, r05, r033 = row.Paper.r_min in
      check Alcotest.int "golem3 R=0.5" 1346 r05;
      check Alcotest.int "golem3 R=0.33" 1340 r033
  | None -> Alcotest.fail "golem3 missing from Table VI"

let test_paper_table7_blanks () =
  match Paper.table7 "golem3" with
  | Some row ->
      check Alcotest.bool "HB blank for golem3" true (row.Paper.hb = None);
      check Alcotest.bool "MLc present" true (row.Paper.mlc100 = Some 1346)
  | None -> Alcotest.fail "golem3 missing from Table VII"

let test_paper_table9_shape () =
  (* the headline claim: MLf min beats GORDIAN on every Table IX circuit *)
  List.iter
    (fun spec ->
      match Paper.table9 spec.Suite.circuit with
      | Some row ->
          check Alcotest.bool
            (spec.Suite.circuit ^ ": published MLf < GORDIAN")
            true
            (row.Paper.t9_mlf_min < row.Paper.t9_gordian)
      | None -> ())
    Suite.all

let test_paper_unknown_circuit () =
  check Alcotest.bool "unknown is None" true (Paper.table2 "nonexistent" = None)

let () =
  Alcotest.run "experiments"
    [
      ( "algos",
        [
          Alcotest.test_case "bipartitioners valid" `Slow
            test_all_bipartitioners_valid;
          Alcotest.test_case "quadrisectors valid" `Slow
            test_all_quadrisectors_valid;
          Alcotest.test_case "names distinct" `Quick test_algo_names_distinct;
          Alcotest.test_case "rb honours tolerance" `Quick test_rb_tolerance;
          Alcotest.test_case "rb pool identical" `Quick test_rb_pool_identical;
          Alcotest.test_case "2-way golden answers" `Quick test_twoway_golden;
        ] );
      ( "report",
        [
          Alcotest.test_case "aggregates" `Quick test_measure_aggregates;
          Alcotest.test_case "deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_measure_seed_changes_runs;
          Alcotest.test_case "parallel identical" `Quick
            test_measure_parallel_identical;
          Alcotest.test_case "jobs 4 identical (mlc)" `Quick
            test_measure_jobs4_identical_mlc;
          Alcotest.test_case "cells" `Quick test_cells;
        ] );
      ( "paper",
        [
          Alcotest.test_case "table2 complete" `Quick test_paper_table2_complete;
          Alcotest.test_case "table3 values" `Quick test_paper_table3_values;
          Alcotest.test_case "table6 values" `Quick test_paper_table6_values;
          Alcotest.test_case "table7 blanks" `Quick test_paper_table7_blanks;
          Alcotest.test_case "table9 shape" `Quick test_paper_table9_shape;
          Alcotest.test_case "unknown circuit" `Quick test_paper_unknown_circuit;
        ] );
    ]
