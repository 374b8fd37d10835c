module H = Mlpart_hypergraph.Hypergraph
module Rng = Mlpart_util.Rng
module Multiway = Mlpart_partition.Multiway

type config = { ratio : float; engine : Multiway.config }

let default = { ratio = 1.0; engine = Multiway.default }

(* Coarsening constants: the paper's T = 100 for quadrisection, and, as in
   [Ml.mlf], duplicate nets kept (Definition 1 taken literally) and a
   depth bound only a coarsening stall could reach. *)
let threshold = 100
let merge_duplicates = false
let max_levels = 64

type result = { side : int array; cut : int; levels : int; coarsest_modules : int }

let run ?(config = default) ?fixed rng h ~k =
  let hierarchy =
    Hierarchy.build ~threshold ~ratio:config.ratio ~merge_duplicates
      ~max_levels ?fixed rng h
  in
  (* One engine arena shared by the initial partition and every
     refinement level, as in Ml.refine_up. *)
  let arena = Multiway.create_arena () in
  let initial =
    Multiway.run ~config:config.engine
      ?fixed:hierarchy.Hierarchy.coarsest_fixed ~arena rng
      hierarchy.Hierarchy.coarsest ~k
  in
  let side =
    List.fold_left
      (fun coarse_side { Hierarchy.netlist; cluster_of; fixed = level_fixed } ->
        let projected = Ml.project cluster_of coarse_side in
        let refined =
          Multiway.run ~config:config.engine ~init:projected ?fixed:level_fixed
            ~arena rng netlist ~k
        in
        refined.Multiway.side)
      initial.Multiway.side
      (List.rev hierarchy.Hierarchy.levels)
  in
  {
    side;
    cut = Multiway.cut_of h ~k side;
    levels = List.length hierarchy.Hierarchy.levels;
    coarsest_modules = H.num_modules hierarchy.Hierarchy.coarsest;
  }
