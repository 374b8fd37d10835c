(* Engine comparison: bipartition one circuit with every engine of the
   registry that accepts k = 2 — the menu of §II of the paper, the
   multilevel drivers and the k-way engines run at k = 2.

   Run with:  dune exec examples/engine_comparison.exe -- [circuit] [runs] *)

module Rng = Mlpart_util.Rng
module Stats = Mlpart_util.Stats
module Algos = Mlpart_experiments.Algos

let () =
  let circuit = if Array.length Sys.argv > 1 then Sys.argv.(1) else "primary1" in
  let runs =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 10
  in
  let h = Mlpart_gen.Suite.(instantiate (find circuit)) in
  Format.printf "circuit: %a, %d runs/engine@."
    Mlpart_hypergraph.Hypergraph.pp_summary h runs;
  let rows =
    List.filter_map
      (fun algo ->
        if not (Algos.accepts algo 2) then None
        else begin
          let rng = Rng.create 11 in
          let stats = Stats.create () in
          let start = Sys.time () in
          for _ = 1 to runs do
            let _, cut = algo.Algos.run ~tolerance:0.1 (Rng.split rng) h ~k:2 in
            Stats.add stats (float_of_int cut)
          done;
          Some
            [
              algo.Algos.name;
              string_of_int (int_of_float (Stats.min stats));
              Printf.sprintf "%.1f" (Stats.mean stats);
              Printf.sprintf "%.1f" (Stats.stddev stats);
              Printf.sprintf "%.2f" (Sys.time () -. start);
            ]
        end)
      (Algos.all ~ratio:0.5 ())
  in
  Mlpart_util.Tab.print ~header:[ "engine"; "min"; "avg"; "std"; "cpu (s)" ] rows
