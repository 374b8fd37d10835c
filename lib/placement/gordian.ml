module H = Mlpart_hypergraph.Hypergraph

(* Each axis's conjugate-gradient solve stops at [Quadratic.solve]'s
   relative residual of 1e-7 or after 500 iterations, half its default
   cap: a bound on GORDIAN's cost, and the value the Table IX comparisons
   here were made with. *)
let cg_max_iter = 500

type result = {
  side : int array;
  cut : int;
  x : float array;
  y : float array;
  hpwl : float;
  pads : int array;
}

(* The 1% highest-degree modules, at least 16, stand in for the
   benchmark's I/O pads; they are spread around the boundary of the unit
   die in that order. *)
let pads h =
  let n = H.num_modules h in
  let ids = Array.init n (fun v -> v) in
  let deg v = H.module_degree h v in
  Array.sort (fun a b -> compare (deg b, a) (deg a, b)) ids;
  let count = Stdlib.min n (Stdlib.max 16 (n / 100)) in
  Array.mapi
    (fun i v ->
      let t = 4.0 *. float_of_int i /. float_of_int (Stdlib.max 1 count) in
      let x, y =
        if t < 1.0 then (t, 0.0)
        else if t < 2.0 then (1.0, t -. 1.0)
        else if t < 3.0 then (3.0 -. t, 1.0)
        else (0.0, 4.0 -. t)
      in
      (v, x, y))
    (Array.sub ids 0 count)

let quadrants_of_placement h ~x ~y =
  let n = H.num_modules h in
  let by_coordinate coord ids =
    let sorted = Array.copy ids in
    (* Ties broken by module id for determinism. *)
    Array.sort (fun a b -> compare (coord.(a), a) (coord.(b), b)) sorted;
    sorted
  in
  let quadrant = Array.make n 0 in
  let split_half base ids =
    let y_order = by_coordinate y ids in
    let half = Quadratic.median_split h y_order in
    Array.iteri
      (fun i v -> quadrant.(v) <- (base + if i < half then 0 else 1))
      y_order
  in
  let x_order = by_coordinate x (Array.init n (fun v -> v)) in
  let half = Quadratic.median_split h x_order in
  split_half 0 (Array.sub x_order 0 half);
  split_half 2 (Array.sub x_order half (n - half));
  quadrant

let run h =
  let placed = pads h in
  let fixed_x = Array.to_list (Array.map (fun (v, x, _) -> (v, x)) placed) in
  let fixed_y = Array.to_list (Array.map (fun (v, _, y) -> (v, y)) placed) in
  let solve fixed =
    Quadratic.solve ~max_iter:cg_max_iter (Quadratic.build h ~fixed)
  in
  let x = solve fixed_x in
  let y = solve fixed_y in
  let side = quadrants_of_placement h ~x ~y in
  let cut = Mlpart_partition.Multiway.cut_of h ~k:4 side in
  {
    side;
    cut;
    x;
    y;
    hpwl = Quadratic.hpwl h ~x ~y;
    pads = Array.map (fun (v, _, _) -> v) placed;
  }
