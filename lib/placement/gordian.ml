module H = Mlpart_hypergraph.Hypergraph

type config = { num_pads : int option }

let default = { num_pads = None }

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

(* Highest-degree modules stand in for the benchmark's I/O pads. *)
let choose_pads h count =
  let n = H.num_modules h in
  let ids = Array.init n (fun v -> v) in
  let deg v = H.module_degree h v in
  Array.sort (fun a b -> compare (deg b, a) (deg a, b)) ids;
  Array.sub ids 0 (Stdlib.min count n)

(* Pads are spread around the boundary of the unit die in index order. *)
let pad_positions pads =
  let count = Array.length pads in
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
    pads

(* Split an index ordering into two equal-area groups. *)
let median_split h order =
  let total = Array.fold_left (fun acc v -> acc + H.area h v) 0 order in
  let side = Array.make (Array.length order) 1 in
  let acc = ref 0 in
  (try
     Array.iteri
       (fun i v ->
         if 2 * !acc >= total then raise Exit;
         side.(i) <- 0;
         acc := !acc + H.area h v)
       order
   with Exit -> ());
  side

let quadrants_of_placement h ~x ~y =
  let n = H.num_modules h in
  let by_coordinate coord ids =
    let sorted = Array.copy ids in
    (* Ties broken by module id for determinism. *)
    Array.sort (fun a b -> compare (coord.(a), a) (coord.(b), b)) sorted;
    sorted
  in
  let all = Array.init n (fun v -> v) in
  let x_order = by_coordinate x all in
  let halves = median_split h x_order in
  let left = ref [] and right = ref [] in
  Array.iteri
    (fun i v -> if halves.(i) = 0 then left := v :: !left else right := v :: !right)
    x_order;
  let quadrant = Array.make n 0 in
  let split_half base members =
    let ids = Array.of_list members in
    let y_order = by_coordinate y ids in
    let spl = median_split h y_order in
    Array.iteri (fun i v -> quadrant.(v) <- base + spl.(i)) y_order
  in
  split_half 0 !left;
  split_half 2 !right;
  quadrant

let run ?(config = default) h =
  let n = H.num_modules h in
  let pad_count =
    match config.num_pads with
    | Some c -> Stdlib.max 1 (Stdlib.min c n)
    | None -> Stdlib.max 16 (n / 100) |> Stdlib.min n
  in
  let pads = choose_pads h pad_count in
  let placed = pad_positions pads in
  let fixed_x = Array.to_list (Array.map (fun (v, x, _) -> (v, x)) placed) in
  let fixed_y = Array.to_list (Array.map (fun (v, _, y) -> (v, y)) placed) in
  let solve fixed =
    Quadratic.solve ~max_iter:cg_max_iter (Quadratic.build h ~fixed)
  in
  let x = solve fixed_x in
  let y = solve fixed_y in
  let side = quadrants_of_placement h ~x ~y in
  let cut = Mlpart_partition.Multiway.cut_of h ~k:4 side in
  { side; cut; x; y; hpwl = Quadratic.hpwl h ~x ~y; pads }
