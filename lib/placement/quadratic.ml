module H = Mlpart_hypergraph.Hypergraph

type laplacian = {
  diag : float array;
  row_offsets : int array;
  col : int array;
  weight : float array;
}

type t = {
  n : int;
  nfree : int;
  free_index : int array; (* module -> dense free index, -1 if fixed *)
  free_modules : int array; (* dense free index -> module *)
  position : float array; (* fixed coordinates; 0 for free *)
  is_fixed : bool array;
  lap : laplacian; (* over free modules: free-free couplings only *)
  rhs : float array; (* per free module *)
}

(* Expand a hypergraph into weighted 2-pin edges: clique model for small
   nets (weight 2w/|e| per pair), chain model for large ones. *)
let edges_of ~clique_limit h =
  let edges = ref [] in
  for e = 0 to H.num_nets h - 1 do
    let pins = H.pins_of h e in
    let size = Array.length pins in
    let w = float_of_int (H.net_weight h e) in
    if size <= clique_limit then begin
      let pair_w = 2.0 *. w /. float_of_int size in
      for i = 0 to size - 1 do
        for j = i + 1 to size - 1 do
          edges := (pins.(i), pins.(j), pair_w) :: !edges
        done
      done
    end
    else
      for i = 0 to size - 2 do
        edges := (pins.(i), pins.(i + 1), w) :: !edges
      done
  done;
  !edges

(* The one CSR assembly.  Each edge writes its off-diagonal entries and
   adds to the diagonal in edge order, so with no module fixed a row's
   diagonal is the left-to-right sum of its entries, bit for bit. *)
let assemble ?(clique_limit = 32) h ~fixed =
  let n = H.num_modules h in
  let is_fixed = Array.make n false in
  let position = Array.make n 0.0 in
  List.iter
    (fun (v, pos) ->
      if v < 0 || v >= n then invalid_arg "Quadratic.build: fixed module out of range";
      is_fixed.(v) <- true;
      position.(v) <- pos)
    fixed;
  let free_index = Array.make n (-1) in
  let free_count = ref 0 in
  for v = 0 to n - 1 do
    if not is_fixed.(v) then begin
      free_index.(v) <- !free_count;
      incr free_count
    end
  done;
  let nf = !free_count in
  let free_modules = Array.make (Stdlib.max 1 nf) 0 in
  for v = 0 to n - 1 do
    if free_index.(v) >= 0 then free_modules.(free_index.(v)) <- v
  done;
  let edges = edges_of ~clique_limit h in
  let diag = Array.make (Stdlib.max 1 nf) 0.0 in
  let rhs = Array.make (Stdlib.max 1 nf) 0.0 in
  (* Count free-free entries (both directions) for CSR sizing. *)
  let degree = Array.make (Stdlib.max 1 nf) 0 in
  List.iter
    (fun (a, b, _) ->
      let fa = free_index.(a) and fb = free_index.(b) in
      if fa >= 0 && fb >= 0 then begin
        degree.(fa) <- degree.(fa) + 1;
        degree.(fb) <- degree.(fb) + 1
      end)
    edges;
  let row_offsets = Array.make (nf + 1) 0 in
  for i = 0 to nf - 1 do
    row_offsets.(i + 1) <- row_offsets.(i) + degree.(i)
  done;
  let nnz = row_offsets.(nf) in
  let col = Array.make (Stdlib.max 1 nnz) 0 in
  let weight = Array.make (Stdlib.max 1 nnz) 0.0 in
  let cursor = Array.copy row_offsets in
  List.iter
    (fun (a, b, w) ->
      let fa = free_index.(a) and fb = free_index.(b) in
      (match (fa >= 0, fb >= 0) with
      | true, true ->
          col.(cursor.(fa)) <- fb;
          weight.(cursor.(fa)) <- w;
          cursor.(fa) <- cursor.(fa) + 1;
          col.(cursor.(fb)) <- fa;
          weight.(cursor.(fb)) <- w;
          cursor.(fb) <- cursor.(fb) + 1
      | true, false -> rhs.(fa) <- rhs.(fa) +. (w *. position.(b))
      | false, true -> rhs.(fb) <- rhs.(fb) +. (w *. position.(a))
      | false, false -> ());
      if fa >= 0 then diag.(fa) <- diag.(fa) +. w;
      if fb >= 0 then diag.(fb) <- diag.(fb) +. w)
    edges;
  { n; nfree = nf; free_index; free_modules; position; is_fixed;
    lap = { diag; row_offsets; col; weight }; rhs }

let build ?clique_limit h ~fixed =
  if fixed = [] then invalid_arg "Quadratic.build: no fixed modules";
  assemble ?clique_limit h ~fixed

let laplacian h = (assemble h ~fixed:[]).lap

(* The prefix ends at the first module whose preceding area reaches half
   the total. *)
let median_split h order =
  let total = Array.fold_left (fun acc v -> acc + H.area h v) 0 order in
  let rec prefix i acc =
    if i = Array.length order || 2 * acc >= total then i
    else prefix (i + 1) (acc + H.area h order.(i))
  in
  prefix 0 0

(* y = A x where A = diag - offdiag couplings (the reduced Laplacian). *)
let matvec { diag; row_offsets; col; weight } x y =
  let nf = Array.length x in
  for i = 0 to nf - 1 do
    let acc = ref (diag.(i) *. x.(i)) in
    for s = row_offsets.(i) to row_offsets.(i + 1) - 1 do
      acc := !acc -. (weight.(s) *. x.(col.(s)))
    done;
    y.(i) <- !acc
  done

let dot a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let solve ?(tol = 1e-7) ?(max_iter = 1000) t =
  let nfree = t.nfree in
  let x = Array.make (Stdlib.max 1 nfree) 0.0 in
  if nfree > 0 then begin
    (* Jacobi-preconditioned conjugate gradients on A x = rhs. *)
    let r = Array.copy t.rhs in
    let z = Array.make nfree 0.0 in
    let p = Array.make nfree 0.0 in
    let ap = Array.make nfree 0.0 in
    let precond () =
      for i = 0 to nfree - 1 do
        let d = t.lap.diag.(i) in
        z.(i) <- (if d > 0.0 then r.(i) /. d else r.(i))
      done
    in
    precond ();
    Array.blit z 0 p 0 nfree;
    let rz = ref (dot r z) in
    let rhs_norm = sqrt (dot t.rhs t.rhs) in
    let threshold = tol *. Stdlib.max rhs_norm 1e-30 in
    let iter = ref 0 in
    let finished = ref (sqrt (dot r r) <= threshold) in
    while (not !finished) && !iter < max_iter do
      incr iter;
      matvec t.lap p ap;
      let denom = dot p ap in
      if denom <= 0.0 then finished := true
      else begin
        let alpha = !rz /. denom in
        for i = 0 to nfree - 1 do
          x.(i) <- x.(i) +. (alpha *. p.(i));
          r.(i) <- r.(i) -. (alpha *. ap.(i))
        done;
        if sqrt (dot r r) <= threshold then finished := true
        else begin
          precond ();
          let rz' = dot r z in
          let beta = rz' /. !rz in
          rz := rz';
          for i = 0 to nfree - 1 do
            p.(i) <- z.(i) +. (beta *. p.(i))
          done
        end
      end
    done
  end;
  let out = Array.make t.n 0.0 in
  for v = 0 to t.n - 1 do
    out.(v) <- (if t.is_fixed.(v) then t.position.(v) else x.(t.free_index.(v)))
  done;
  out

let residual t solution =
  let nfree = t.nfree in
  if nfree = 0 then 0.0
  else begin
    let x = Array.init nfree (fun i -> solution.(t.free_modules.(i))) in
    let ax = Array.make nfree 0.0 in
    matvec t.lap x ax;
    let acc = ref 0.0 in
    for i = 0 to nfree - 1 do
      let d = ax.(i) -. t.rhs.(i) in
      acc := !acc +. (d *. d)
    done;
    sqrt !acc /. Stdlib.max 1e-30 (sqrt (dot t.rhs t.rhs))
  end

let hpwl h ~x ~y =
  let total = ref 0.0 in
  for e = 0 to H.num_nets h - 1 do
    let min_x = ref infinity and max_x = ref neg_infinity in
    let min_y = ref infinity and max_y = ref neg_infinity in
    H.iter_pins_of h e (fun v ->
        if x.(v) < !min_x then min_x := x.(v);
        if x.(v) > !max_x then max_x := x.(v);
        if y.(v) < !min_y then min_y := y.(v);
        if y.(v) > !max_y then max_y := y.(v));
    total :=
      !total
      +. (float_of_int (H.net_weight h e) *. (!max_x -. !min_x +. !max_y -. !min_y))
  done;
  !total
