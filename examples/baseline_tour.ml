(* Baseline tour: three decades of min-cut bipartitioning on one circuit,
   in historical order — the lineage the paper's introduction walks:

     KL (1970)       pair swaps, exact balance
     FM (1982)       single moves, gain buckets, linear-time passes
     EIG (1992)      spectral bisection (Fiedler vector)
     CLIP (1996)     cluster-oriented gain offsets
     GA-FM (1994)    hybrid genetic evolution of FM solutions
     2-phase (1987+) one clustering level + refinement
     ML (1997)       the paper: full multilevel hierarchy

   Run with:  dune exec examples/baseline_tour.exe -- [circuit] [runs] *)

module Rng = Mlpart_util.Rng
module Stats = Mlpart_util.Stats
module Algos = Mlpart_experiments.Algos

(* Registry names in historical order ([clip] is MLc, at R = 0.5 below). *)
let lineage =
  [
    ("KL  (1970)", "kl");
    ("FM  (1982)", "flat-fm");
    ("EIG (1992)", "eig");
    ("CLIP (1996)", "flat-clip");
    ("GA-FM (1994)", "ga-fm");
    ("2-phase", "two-phase");
    ("ML  (1997)", "clip");
  ]

let () =
  let circuit = if Array.length Sys.argv > 1 then Sys.argv.(1) else "s9234" in
  let runs = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 5 in
  let h = Mlpart_gen.Suite.(instantiate (find circuit)) in
  Format.printf "circuit: %a, %d runs/algorithm@."
    Mlpart_hypergraph.Hypergraph.pp_summary h runs;
  let rows =
    List.map
      (fun (label, name) ->
        let algo = Option.get (Algos.find ~ratio:0.5 name) in
        let rng = Rng.create 17 in
        let stats = Stats.create () in
        let start = Sys.time () in
        for _ = 1 to runs do
          let _, cut = algo.Algos.run ~tolerance:0.1 (Rng.split rng) h ~k:2 in
          Stats.add stats (float_of_int cut)
        done;
        [
          label;
          string_of_int (int_of_float (Stats.min stats));
          Printf.sprintf "%.1f" (Stats.mean stats);
          Printf.sprintf "%.2f" (Sys.time () -. start);
        ])
      lineage
  in
  Mlpart_util.Tab.print ~header:[ "algorithm"; "min cut"; "avg cut"; "cpu (s)" ]
    rows;
  print_endline
    "Each generation tightens the average; the multilevel hierarchy (the\n\
     paper's contribution) is what finally makes the minimum reliable."
