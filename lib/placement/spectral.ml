module H = Mlpart_hypergraph.Hypergraph

(* Power iteration stops after 500 steps or once successive iterates
   agree to within 1e-7 (1 - |<x, y>|); the cap bounds EIG's cost on
   slowly converging netlists. *)
let iterations = 500
let tol = 1e-7

type result = {
  side : int array;
  cut : int;
  fiedler : float array;
  iterations_used : int;
}

let norm x = sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x)

(* Shifted power iteration: the dominant eigenvector of (shift I - L)
   restricted to the complement of the constant vector is the Fiedler
   vector.  The start vector is a fixed pseudo-random pattern so runs are
   reproducible. *)
let fiedler_vector ~iterations ~tol (lap : Quadratic.laplacian) n =
  let shift =
    2.0 *. Array.fold_left Stdlib.max 1.0 lap.diag
  in
  let x = Array.init n (fun v -> float_of_int (((v * 2654435761) land 0xffff) - 0x8000)) in
  let y = Array.make n 0.0 in
  let deflate v =
    let mean = Array.fold_left ( +. ) 0.0 v /. float_of_int n in
    for i = 0 to n - 1 do
      v.(i) <- v.(i) -. mean
    done
  in
  let normalise v =
    let len = norm v in
    if len > 0.0 then
      for i = 0 to n - 1 do
        v.(i) <- v.(i) /. len
      done
  in
  deflate x;
  normalise x;
  let used = ref 0 in
  let converged = ref false in
  while (not !converged) && !used < iterations do
    incr used;
    (* y = (shift I - L) x *)
    for i = 0 to n - 1 do
      let acc = ref ((shift -. lap.diag.(i)) *. x.(i)) in
      for s = lap.row_offsets.(i) to lap.row_offsets.(i + 1) - 1 do
        acc := !acc +. (lap.weight.(s) *. x.(lap.col.(s)))
      done;
      y.(i) <- !acc
    done;
    deflate y;
    normalise y;
    (* convergence: 1 - |<x, y>| small *)
    let dot = ref 0.0 in
    for i = 0 to n - 1 do
      dot := !dot +. (x.(i) *. y.(i))
    done;
    if 1.0 -. abs_float !dot < tol then converged := true;
    Array.blit y 0 x 0 n
  done;
  (x, !used)

let run h =
  let n = H.num_modules h in
  let lap = Quadratic.laplacian h in
  let fiedler, iterations_used = fiedler_vector ~iterations ~tol lap n in
  let order = Array.init n (fun v -> v) in
  Array.sort
    (fun a b -> compare (fiedler.(a), a) (fiedler.(b), b))
    order;
  (* the prefix holding half the area goes to side 0 *)
  let side = Array.make n 1 in
  for i = 0 to Quadratic.median_split h order - 1 do
    side.(order.(i)) <- 0
  done;
  { side; cut = Mlpart_partition.Fm.cut_of h side; fiedler; iterations_used }
