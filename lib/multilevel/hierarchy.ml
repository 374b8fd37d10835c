module H = Mlpart_hypergraph.Hypergraph
module Trace = Mlpart_obs.Trace
module Metrics = Mlpart_obs.Metrics

let m_levels = Metrics.counter "coarsen.levels"

let h_shrink =
  (* coarse modules as a percentage of fine modules, per level *)
  Metrics.histogram "coarsen.shrink_pct"
    ~buckets:[| 30; 40; 50; 55; 60; 65; 70; 80; 90; 100 |]

type level = {
  netlist : H.t;
  cluster_of : int array;
  fixed : int array option;
}

type t = {
  levels : level list;
  coarsest : H.t;
  coarsest_fixed : int array option;
}

let project_fixed cluster_of k fixed =
  let coarse = Array.make k (-1) in
  Array.iteri (fun v p -> if p >= 0 then coarse.(cluster_of.(v)) <- p) fixed;
  coarse

(* Cluster areas are capped at 4 times the average module area of a
   threshold-sized netlist: without the cap, iterated matching lets one
   cluster snowball to most of the total area, leaving the coarsest netlist
   no balance freedom. *)
let cluster_area_factor = 4.0

let build ~threshold ~ratio ~merge_duplicates ~max_levels ?fixed ?pair_ok
    ?pool rng h =
  let max_cluster_area =
    Stdlib.max 2
      (int_of_float
         (cluster_area_factor *. float_of_int (H.total_area h)
          /. float_of_int (Stdlib.max 1 threshold)))
  in
  (* One arena reused across every induce of the hierarchy: per-level
     coarsening allocates only the coarse CSR arrays themselves. *)
  let arena = H.create_arena () in
  let rec go h fixed acc depth =
    if H.num_modules h <= threshold || depth >= max_levels then
      { levels = List.rev acc; coarsest = h; coarsest_fixed = fixed }
    else begin
      (* pinned modules stay unclustered; with none, Match skips the test *)
      let matchable = Option.map (fun f v -> f.(v) < 0) fixed in
      let n = H.num_modules h in
      let t0 = Trace.start () in
      let cluster_of, k =
        Trace.span ~cat:"coarsen" "coarsen/match" (fun () ->
            Match.run ?matchable ?pair_ok ~max_cluster_area ?pool rng h ~ratio)
      in
      if k >= H.num_modules h then begin
        (* matching found no reduction: the hierarchy stops here *)
        Trace.instant ~cat:"coarsen"
          ~args:[ ("level", Trace.Int depth); ("modules", Trace.Int n) ]
          "coarsen/stall";
        { levels = List.rev acc; coarsest = h; coarsest_fixed = fixed }
      end
      else begin
        let coarser, _ =
          Trace.span ~cat:"coarsen" "coarsen/induce" (fun () ->
              H.induce ~name:(H.name h) ~merge_duplicates ~arena ?pool h
                cluster_of)
        in
        if Trace.enabled () then
          Trace.complete ~cat:"coarsen"
            ~args:
              [
                ("level", Trace.Int depth);
                ("modules", Trace.Int n);
                ("nets", Trace.Int (H.num_nets h));
                ("pins", Trace.Int (H.num_pins h));
                ("coarse_modules", Trace.Int k);
                (* fraction of modules absorbed into pairs — the achieved
                   matching ratio against the configured target R *)
                ( "matched_ratio",
                  Trace.Float (float_of_int (2 * (n - k)) /. float_of_int n) );
              ]
            "coarsen/level" t0;
        Metrics.incr m_levels;
        Metrics.observe h_shrink (100 * k / Stdlib.max 1 n);
        let coarser_fixed =
          Option.map (fun f -> project_fixed cluster_of k f) fixed
        in
        go coarser coarser_fixed
          ({ netlist = h; cluster_of; fixed } :: acc)
          (depth + 1)
      end
    end
  in
  go h fixed [] 0
