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
