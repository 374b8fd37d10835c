module Suite = Mlpart_gen.Suite
module Tab = Mlpart_util.Tab
module H = Mlpart_hypergraph.Hypergraph

type protocol = { runs : int; seed : int; tier : Suite.tier; jobs : int }

let default_protocol = { runs = 5; seed = 1; tier = Suite.Small; jobs = 1 }

let circuits p = Suite.tier_specs p.tier

let banner title note =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "%s\n" note;
  Printf.printf "================================================================\n"

let protocol_note p =
  Printf.sprintf
    "Protocol: %d runs/algorithm, seed %d, synthetic circuits (see DESIGN.md).\n\
     Paper columns are the published values (100 runs on the real benchmarks)."
    p.runs p.seed

let i = string_of_int
let f1 = Tab.ff1

let table1 p =
  banner "Table I: benchmark circuit characteristics"
    "Published counts vs the synthetic instantiation used throughout.";
  Format.printf "%a@?" Suite.pp_table1 (circuits p)

(* Measure each algorithm on one circuit, in list order. *)
let run_row p h algos =
  List.map
    (fun algo -> Report.measure ~jobs:p.jobs ~runs:p.runs ~seed:p.seed h algo)
    algos

(* The layout of Tables II-VI: per circuit, each algorithm's min cut, then
   its average cut, then (with [cpu]) its CPU seconds, then the paper's min
   and average cells ("a/b/c" across the algorithms, "-" when the paper
   leaves the circuit out).  [columns] pairs each algorithm with the label
   its header cells carry; [paper] gives the published mins and averages. *)
let comparison_table p ~title ~columns ~cpu ~paper_label ~paper =
  banner title (protocol_note p);
  let slashed vs = String.concat "/" (List.map i vs) in
  let rows =
    List.map
      (fun spec ->
        let h = Suite.instantiate ~seed:p.seed spec in
        let ms = run_row p h (List.map snd columns) in
        let paper_min, paper_avg =
          match paper spec.Suite.circuit with
          | None -> ("-", "-")
          | Some (mins, avgs) -> (slashed mins, slashed avgs)
        in
        spec.Suite.circuit
        :: List.map (fun m -> i m.Report.min_cut) ms
        @ List.map (fun m -> f1 m.Report.avg_cut) ms
        @ (if cpu then List.map (fun m -> Tab.ff2 m.Report.cpu) ms else [])
        @ [ paper_min; paper_avg ])
      (circuits p)
  in
  let heads prefix = List.map (fun (label, _) -> prefix ^ label) columns in
  Tab.print
    ~header:
      ("circuit" :: heads "min" @ heads "avg"
      @ (if cpu then heads "cpu" else [])
      @ [ "paper min" ^ paper_label; "paper avg" ^ paper_label ])
    rows

let triple (a, b, c) = [ a; b; c ]

let table2 p =
  comparison_table p
    ~title:"Table II: FM bucket tie-breaking schemes (LIFO / FIFO / RND)"
    ~columns:
      [
        ("L", Algos.flat_fm);
        ("F", Algos.flat_fm_fifo);
        ("R", Algos.flat_fm_random);
      ]
    ~cpu:false ~paper_label:" L/F/R"
    ~paper:(fun c ->
      Option.map
        (fun { Paper.t2_min; t2_avg } -> (triple t2_min, triple t2_avg))
        (Paper.table2 c))

let table3 p =
  comparison_table p ~title:"Table III: FM vs CLIP"
    ~columns:[ ("FM", Algos.flat_fm); ("CLIP", Algos.flat_clip) ]
    ~cpu:true ~paper_label:""
    ~paper:(fun circuit ->
      Option.map
        (fun { Paper.t3_min = a, b; t3_avg = c, d; _ } -> ([ a; b ], [ c; d ]))
        (Paper.table3 circuit))

let table4 p =
  comparison_table p ~title:"Table IV: CLIP vs MLf vs MLc (R = 1)"
    ~columns:
      [
        ("CLIP", Algos.flat_clip);
        ("MLf", Algos.mlf 1.0);
        ("MLc", Algos.mlc 1.0);
      ]
    ~cpu:true ~paper_label:" C/F/C"
    ~paper:(fun c ->
      Option.map
        (fun { Paper.t4_min; t4_avg; _ } -> (triple t4_min, triple t4_avg))
        (Paper.table4 c))

let ratio_table p ~title ~mk_algo ~paper_lookup =
  comparison_table p ~title
    ~columns:
      [ ("1.0", mk_algo 1.0); ("0.5", mk_algo 0.5); (".33", mk_algo 0.33) ]
    ~cpu:true ~paper_label:""
    ~paper:(fun c ->
      Option.map
        (fun { Paper.r_min; r_avg; _ } -> (triple r_min, triple r_avg))
        (paper_lookup c))

let table5 p =
  ratio_table p ~title:"Table V: MLf under matching ratios R = 1.0 / 0.5 / 0.33"
    ~mk_algo:Algos.mlf ~paper_lookup:Paper.table5

let table6 p =
  ratio_table p ~title:"Table VI: MLc under matching ratios R = 1.0 / 0.5 / 0.33"
    ~mk_algo:Algos.mlc ~paper_lookup:Paper.table6

let table7_algos p =
  [
    Algos.mlc 0.5;
    Algos.cl_la3f;
    Algos.cd_la3f;
    Algos.cl_prf;
    Algos.lsmc (Stdlib.max 10 (2 * p.runs));
  ]

let table7 p =
  banner "Table VII: MLc (R = 0.5) vs other bipartitioners — min cut"
    (protocol_note p
    ^ "\nGMet/HB/PB/GFM are external systems: published values only.");
  let rows =
    List.map
      (fun spec ->
        let h = Suite.instantiate ~seed:p.seed spec in
        let ms = run_row p h (table7_algos p) in
        let paper = Paper.table7 spec.Suite.circuit in
        let pc f = match paper with None -> "-" | Some row -> Report.cell (f row) in
        spec.Suite.circuit
        :: List.map (fun m -> i m.Report.min_cut) ms
        @ List.map (fun m -> f1 m.Report.avg_cut) ms
        @ [
            pc (fun r -> r.Paper.mlc100); pc (fun r -> r.Paper.cl_la3f);
            pc (fun r -> r.Paper.cd_la3f); pc (fun r -> r.Paper.cl_prf);
            pc (fun r -> r.Paper.lsmc); pc (fun r -> r.Paper.gmet);
            pc (fun r -> r.Paper.hb); pc (fun r -> r.Paper.pb);
            pc (fun r -> r.Paper.gfm);
          ])
      (circuits p)
  in
  Tab.print
    ~header:
      [ "circuit"; "MLc"; "CL-LA3f"; "CD-LA3f"; "CL-PRf"; "LSMC";
        "aMLc"; "aCL"; "aCD"; "aPR"; "aLSMC";
        "pMLc"; "pCL"; "pCD"; "pPR"; "pLSMC"; "pGMet"; "pHB"; "pPB"; "pGFM" ]
    rows

let table8 p =
  banner "Table VIII: CPU seconds for the same algorithms"
    (protocol_note p ^ "\nWall ratios matter, not absolute seconds.");
  let rows =
    List.map
      (fun spec ->
        let h = Suite.instantiate ~seed:p.seed spec in
        let ms = run_row p h (table7_algos p) in
        spec.Suite.circuit :: List.map (fun m -> Tab.ff2 m.Report.cpu) ms)
      (circuits p)
  in
  Tab.print ~header:[ "circuit"; "MLc"; "CL-LA3f"; "CD-LA3f"; "CL-PRf"; "LSMC" ]
    rows

let table9 p =
  banner "Table IX: 4-way partitioning (min cut, ML also avg)"
    (protocol_note p
    ^ "\nGORDIAN column: our analytic-placement reimplementation.");
  let quads =
    [ Algos.multiway 1.0; Algos.gordian; Algos.flat_kway_fm;
      Algos.flat_kway_soed; Algos.lsmc_kway_fm; Algos.lsmc_kway_soed ]
  in
  let rows =
    List.map
      (fun spec ->
        let h = Suite.instantiate ~seed:p.seed spec in
        let ms =
          List.map
            (fun algo ->
              let runs = if algo == Algos.gordian then 1 else p.runs in
              Report.measure ~jobs:p.jobs ~k:4 ~runs ~seed:p.seed h algo)
            quads
        in
        let paper = Paper.table9 spec.Suite.circuit in
        let pcell f = match paper with None -> "-" | Some row -> i (f row) in
        match ms with
        | [ ml; gord; fm; cl; lf; lc ] ->
            [
              spec.Suite.circuit;
              Printf.sprintf "%d (%.0f)" ml.Report.min_cut ml.Report.avg_cut;
              i gord.Report.min_cut; i fm.Report.min_cut; i cl.Report.min_cut;
              i lf.Report.min_cut; i lc.Report.min_cut;
              pcell (fun r -> r.Paper.t9_mlf_min);
              pcell (fun r -> r.Paper.t9_gordian);
              pcell (fun r -> r.Paper.t9_fm);
            ]
        | _ -> assert false)
      (circuits p)
  in
  Tab.print
    ~header:
      [ "circuit"; "MLf (avg)"; "GORD"; "FM4"; "SOED4"; "LSMCf"; "LSMCc";
        "pMLf"; "pGORD"; "pFM" ]
    rows

let figure4 p =
  banner "Figure 4: matching ratio R vs average cut"
    (protocol_note p
    ^ "\nPaper: 40 runs of MLc on avqsmall/avqlarge; here the two largest\n\
       circuits of the selected tier.");
  let specs = circuits p in
  let biggest =
    List.sort (fun a b -> compare b.Suite.modules a.Suite.modules) specs
    |> fun sorted ->
    (match sorted with a :: b :: _ -> [ b; a ] | other -> other)
  in
  let ratios = [ 0.15; 0.25; 0.33; 0.5; 0.75; 1.0 ] in
  let rows =
    List.concat_map
      (fun spec ->
        let h = Suite.instantiate ~seed:p.seed spec in
        List.map
          (fun r ->
            let m =
              Report.measure ~jobs:p.jobs ~runs:p.runs ~seed:p.seed h
                (Algos.mlc r)
            in
            [ spec.Suite.circuit; Printf.sprintf "%.2f" r;
              f1 m.Report.avg_cut; i m.Report.min_cut; Tab.ff2 m.Report.cpu ])
          ratios)
      biggest
  in
  Tab.print ~header:[ "circuit"; "R"; "avg cut"; "min cut"; "cpu" ] rows

let ablations p =
  banner "Ablations: design choices called out in DESIGN.md" (protocol_note p);
  let specs =
    match circuits p with
    | a :: b :: c :: _ -> [ a; b; c ]
    | other -> other
  in
  let module Fm = Mlpart_partition.Fm in
  let module Ml = Mlpart_multilevel.Ml in
  let variants =
    [
      ("MLc base", Ml.with_ratio Ml.mlc 0.5);
      ("MLc merge-dup nets",
       { (Ml.with_ratio Ml.mlc 0.5) with Ml.merge_duplicates = true });
      ("MLc wide balance",
       { (Ml.with_ratio Ml.mlc 0.5) with
         Ml.engine = { Fm.clip with wide_balance = true } });
      ("MLc early-exit 100",
       { (Ml.with_ratio Ml.mlc 0.5) with
         Ml.engine = { Fm.clip with early_exit = Some 100 } });
      ("MLc boundary FM",
       { (Ml.with_ratio Ml.mlc 0.5) with
         Ml.engine = { Fm.clip with boundary = true } });
      ("MLc 8 coarse starts",
       { (Ml.with_ratio Ml.mlc 0.5) with Ml.coarsest_starts = 8 });
    ]
  in
  let rows =
    List.concat_map
      (fun spec ->
        let h = Suite.instantiate ~seed:p.seed spec in
        List.map
          (fun (label, config) ->
            let m =
              Report.measure ~jobs:p.jobs ~runs:p.runs ~seed:p.seed h
                (Algos.ml label config)
            in
            [ spec.Suite.circuit; label; i m.Report.min_cut; f1 m.Report.avg_cut;
              Tab.ff2 m.Report.cpu ])
          variants)
      specs
  in
  Tab.print ~header:[ "circuit"; "variant"; "min"; "avg"; "cpu" ] rows

let recursive p =
  banner "Recursive bisection vs direct multilevel k-way (not in the paper)"
    (protocol_note p);
  let module Rb = Mlpart_multilevel.Rb in
  let module MLW = Mlpart_multilevel.Ml_multiway in
  let specs =
    match circuits p with a :: b :: c :: _ -> [ a; b; c ] | other -> other
  in
  let rows =
    List.concat_map
      (fun spec ->
        let h = Suite.instantiate ~seed:p.seed spec in
        List.map
          (fun k ->
            let rng = Mlpart_util.Rng.create p.seed in
            let best f =
              let cut = ref max_int and soed = ref max_int in
              for _ = 1 to p.runs do
                let c, s = f (Mlpart_util.Rng.split rng) in
                if c < !cut then cut := c;
                if s < !soed then soed := s
              done;
              (!cut, !soed)
            in
            let rb_soed =
              best (fun rng ->
                  let r = Rb.run rng h ~k in
                  (r.Rb.cut, r.Rb.sum_degrees))
            in
            let rb_cut =
              best (fun rng ->
                  let r =
                    Rb.run ~config:{ Rb.default with Rb.keep_cut_nets = false }
                      rng h ~k
                  in
                  (r.Rb.cut, r.Rb.sum_degrees))
            in
            let direct =
              best (fun rng ->
                  let r = MLW.run rng h ~k in
                  let kp =
                    Mlpart_partition.Kpartition.create h ~k r.MLW.side
                  in
                  (r.MLW.cut, Mlpart_partition.Kpartition.sum_degrees kp))
            in
            [
              spec.Suite.circuit; i k;
              i (fst rb_cut); i (snd rb_cut);
              i (fst rb_soed); i (snd rb_soed);
              i (fst direct); i (snd direct);
            ])
          [ 4; 8 ])
      specs
  in
  Tab.print
    ~header:
      [ "circuit"; "k"; "RBcut cut"; "RBcut soed"; "RBsoed cut"; "RBsoed soed";
        "MLk cut"; "MLk soed" ]
    rows

let extras p =
  banner "Extras: spectral / two-phase / V-cycle baselines (not in the paper)"
    (protocol_note p);
  let algos =
    [ Algos.kl; Algos.eig; Algos.eig_fm; Algos.ga_fm; Algos.two_phase;
      Algos.mlc 0.5; Algos.mlc_vcycles 4 ]
  in
  let rows =
    List.map
      (fun spec ->
        let h = Suite.instantiate ~seed:p.seed spec in
        let ms =
          List.map
            (fun algo ->
              (* deterministic algorithms need a single run *)
              let runs =
                if algo == Algos.eig || algo == Algos.eig_fm then 1 else p.runs
              in
              Report.measure ~jobs:p.jobs ~runs ~seed:p.seed h algo)
            algos
        in
        spec.Suite.circuit
        :: List.map (fun m -> i m.Report.min_cut) ms
        @ List.map (fun m -> f1 m.Report.avg_cut) ms)
      (circuits p)
  in
  Tab.print
    ~header:
      [ "circuit"; "KL"; "EIG"; "EIG+FM"; "GA-FM"; "2phase"; "MLc"; "MLc+4vc";
        "avgKL"; "avgEIG"; "avgE+F"; "avgGA"; "avg2ph"; "avgMLc"; "avgVC" ]
    rows

let all p =
  table1 p;
  table2 p;
  table3 p;
  table4 p;
  table5 p;
  table6 p;
  table7 p;
  table8 p;
  table9 p;
  figure4 p;
  ablations p;
  extras p;
  recursive p
