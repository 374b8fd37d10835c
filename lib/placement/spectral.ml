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

(* CSR Laplacian: diag and symmetric off-diagonal entries. *)
type laplacian = {
  diag : float array;
  row_offsets : int array;
  col : int array;
  weight : float array;
}

let build_laplacian h =
  let n = H.num_modules h in
  let edges = Quadratic.net_model_edges h in
  let diag = Array.make n 0.0 in
  let degree = Array.make n 0 in
  List.iter
    (fun (a, b, _) ->
      degree.(a) <- degree.(a) + 1;
      degree.(b) <- degree.(b) + 1)
    edges;
  let row_offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row_offsets.(v + 1) <- row_offsets.(v) + degree.(v)
  done;
  let nnz = row_offsets.(n) in
  let col = Array.make (Stdlib.max 1 nnz) 0 in
  let weight = Array.make (Stdlib.max 1 nnz) 0.0 in
  let cursor = Array.copy row_offsets in
  List.iter
    (fun (a, b, w) ->
      col.(cursor.(a)) <- b;
      weight.(cursor.(a)) <- w;
      cursor.(a) <- cursor.(a) + 1;
      col.(cursor.(b)) <- a;
      weight.(cursor.(b)) <- w;
      cursor.(b) <- cursor.(b) + 1;
      diag.(a) <- diag.(a) +. w;
      diag.(b) <- diag.(b) +. w)
    edges;
  { diag; row_offsets; col; weight }

let norm x = sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x)

(* Shifted power iteration: the dominant eigenvector of (shift I - L)
   restricted to the complement of the constant vector is the Fiedler
   vector.  The start vector is a fixed pseudo-random pattern so runs are
   reproducible. *)
let fiedler_vector ~iterations ~tol lap n =
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

(* [order] lists module ids sorted by Fiedler value; the prefix holding
   half the total area goes to side 0. *)
let median_split h order =
  let total = H.total_area h in
  let side = Array.make (Array.length order) 1 in
  let acc = ref 0 in
  (try
     Array.iter
       (fun v ->
         if 2 * !acc >= total then raise Exit;
         side.(v) <- 0;
         acc := !acc + H.area h v)
       order
   with Exit -> ());
  side

let run h =
  let n = H.num_modules h in
  let lap = build_laplacian h in
  let fiedler, iterations_used = fiedler_vector ~iterations ~tol lap n in
  let order = Array.init n (fun v -> v) in
  Array.sort
    (fun a b -> compare (fiedler.(a), a) (fiedler.(b), b))
    order;
  let side = median_split h order in
  { side; cut = Mlpart_partition.Fm.cut_of h side; fiedler; iterations_used }
