module Rng = Mlpart_util.Rng
module Stats = Mlpart_util.Stats
module Pool = Mlpart_util.Pool

type measurement = {
  min_cut : int;
  avg_cut : float;
  std_cut : float;
  cpu : float;
  runs : int;
}

(* Per-run generators are pre-split from the master seed so results do not
   depend on how the runs are scheduled across domains; the shared pool is
   spawned once and reused across every measurement with the same job
   count.  Runs use the paper's balance tolerance r = 0.1, and [cpu] is
   processor time ([Sys.time]), the paper's CPU-seconds column. *)
let measure ?(jobs = 1) ?(k = 2) ~runs ~seed h (algo : Algos.t) =
  let master = Rng.create seed in
  let rngs = Array.init runs (fun _ -> Rng.split master) in
  let one rng =
    let side, cut = algo.Algos.run ~tolerance:0.1 rng h ~k in
    assert (Mlpart_partition.Multiway.cut_of h ~k side = cut);
    cut
  in
  let start = Sys.time () in
  let cuts =
    if jobs <= 1 || runs <= 1 then Array.map one rngs
    else Pool.map (Pool.get ~jobs:(Stdlib.min jobs runs)) one rngs
  in
  let cpu = Sys.time () -. start in
  let stats = Stats.create () in
  Array.iter (fun cut -> Stats.add stats (float_of_int cut)) cuts;
  {
    min_cut = int_of_float (Stats.min stats);
    avg_cut = Stats.mean stats;
    std_cut = Stats.stddev stats;
    cpu;
    runs;
  }

let cell = function None -> "-" | Some v -> string_of_int v
let fcell = function None -> "-" | Some v -> Printf.sprintf "%.1f" v
