module H = Mlpart_hypergraph.Hypergraph
module Rng = Mlpart_util.Rng

type t = {
  h : H.t;
  side : int array;
  pins_on : int array; (* (2 * e) + s -> pin count of net e on side s *)
  areas : int array; (* per side *)
  mutable cut : int; (* weighted, all nets *)
}

type bounds = { lo : int; hi : int }

let clamp_bounds total lo hi =
  { lo = Stdlib.max 0 lo; hi = Stdlib.min total hi }

let bounds ?(tolerance = 0.1) h =
  let total = H.total_area h in
  let half = total / 2 in
  let slack =
    Stdlib.max (H.max_area h)
      (int_of_float (tolerance *. float_of_int total /. 2.0))
  in
  clamp_bounds total (half - slack) (half + slack + (total mod 2))

let wide_bounds ?(tolerance = 0.1) h =
  let total = H.total_area h in
  let half = total / 2 in
  let slack =
    Stdlib.max (H.max_area h) (int_of_float (tolerance *. float_of_int total))
  in
  clamp_bounds total (half - slack) (half + slack + (total mod 2))

let compute_state h side =
  let m = H.num_nets h in
  let noff = H.net_offsets_store h in
  let pins = H.net_pins_store h in
  let wts = H.net_weights_store h in
  let pins_on = Array.make (2 * m) 0 in
  let cut = ref 0 in
  for e = 0 to m - 1 do
    for i = noff.(e) to noff.(e + 1) - 1 do
      let s = side.(pins.(i)) in
      pins_on.((2 * e) + s) <- pins_on.((2 * e) + s) + 1
    done;
    if pins_on.(2 * e) > 0 && pins_on.((2 * e) + 1) > 0 then
      cut := !cut + wts.(e)
  done;
  (pins_on, !cut)

let create h side =
  let n = H.num_modules h in
  if Array.length side <> n then
    invalid_arg "Bipartition.create: side array length mismatch";
  Array.iteri
    (fun v s ->
      if s <> 0 && s <> 1 then
        invalid_arg (Printf.sprintf "Bipartition.create: side of %d is %d" v s))
    side;
  let side = Array.copy side in
  let areas = [| 0; 0 |] in
  for v = 0 to n - 1 do
    areas.(side.(v)) <- areas.(side.(v)) + H.area h v
  done;
  let pins_on, cut = compute_state h side in
  { h; side; pins_on; areas; cut }

let random rng h =
  let n = H.num_modules h in
  let perm = Rng.permutation rng n in
  let total = H.total_area h in
  let side = Array.make n 1 in
  let acc = ref 0 in
  (try
     Array.iter
       (fun v ->
         if 2 * !acc >= total then raise Exit;
         side.(v) <- 0;
         acc := !acc + H.area h v)
       perm
   with Exit -> ());
  create h side

let copy t =
  {
    h = t.h;
    side = Array.copy t.side;
    pins_on = Array.copy t.pins_on;
    areas = Array.copy t.areas;
    cut = t.cut;
  }

let hypergraph t = t.h
let side t v = t.side.(v)
let side_array t = Array.copy t.side
let side_store t = t.side
let area_of_side t s = t.areas.(s)
let cut t = t.cut
let pins_on t e s = t.pins_on.((2 * e) + s)
let pins_on_store t = t.pins_on
let areas_store t = t.areas
let is_cut t e = t.pins_on.(2 * e) > 0 && t.pins_on.((2 * e) + 1) > 0

let is_balanced t b = t.areas.(0) >= b.lo && t.areas.(0) <= b.hi

(* The one place the 2-way balance arithmetic lives: moving a module of
   area [a] off side [s] leaves side 0 at [areas.(0) -/+ a], which lies in
   [b] iff [a] lies in this window.  The predicate and the selectors'
   direction skip both read it. *)
let min_move_area t b s =
  if s = 0 then t.areas.(0) - b.hi else b.lo - t.areas.(0)

let max_move_area t b s =
  if s = 0 then t.areas.(0) - b.lo else b.hi - t.areas.(0)

let move_is_feasible t b v =
  let a = H.area t.h v and s = t.side.(v) in
  a >= min_move_area t b s && a <= max_move_area t b s

let direction_open t b s ~min_area ~max_area =
  max_move_area t b s >= min_area && min_move_area t b s <= max_area

let gain ?(net_threshold = max_int) t v =
  let from = t.side.(v) in
  let dest = 1 - from in
  H.fold_nets_of t.h v ~init:0 ~f:(fun acc e ->
      if H.net_size t.h e > net_threshold then acc
      else
        let w = H.net_weight t.h e in
        let acc = if pins_on t e from = 1 then acc + w else acc in
        if pins_on t e dest = 0 then acc - w else acc)

(* Flip a module's side and the side areas only, leaving pin counts and the
   cut to the caller: the FM engine fuses the per-net count updates into its
   own gain-update sweeps and recomputes the cut once per run, so the
   engine's [t.cut] is stale between [stage_move] and {!recompute_cut}. *)
let stage_move t v =
  let from = t.side.(v) in
  let dest = 1 - from in
  let a = H.area t.h v in
  t.side.(v) <- dest;
  t.areas.(from) <- t.areas.(from) - a;
  t.areas.(dest) <- t.areas.(dest) + a

let move t v =
  let from = t.side.(v) in
  let dest = 1 - from in
  let a = H.area t.h v in
  t.side.(v) <- dest;
  t.areas.(from) <- t.areas.(from) - a;
  t.areas.(dest) <- t.areas.(dest) + a;
  (* Direct CSR walk: with [v] leaving [from], the from-count was [pf + 1]
     (never 0), so the net was cut before iff the dest side was occupied
     ([pd >= 2] after increment) and is cut after iff [pf > 0]. *)
  let moff = H.mod_offsets_store t.h and mnets = H.mod_nets_store t.h in
  let wts = H.net_weights_store t.h in
  let pins_on = t.pins_on in
  let cut = ref t.cut in
  for i = moff.(v) to moff.(v + 1) - 1 do
    let e = mnets.(i) in
    let fi = (2 * e) + from and di = (2 * e) + dest in
    let pf = pins_on.(fi) - 1 and pd = pins_on.(di) + 1 in
    pins_on.(fi) <- pf;
    pins_on.(di) <- pd;
    if pf = 0 then begin
      if pd >= 2 then cut := !cut - wts.(e)
    end
    else if pd = 1 then cut := !cut + wts.(e)
  done;
  t.cut <- !cut

let rebalance ?fixed rng t b =
  let n = H.num_modules t.h in
  let movable v = match fixed with Some f -> f.(v) < 0 | None -> true in
  let moves = ref 0 in
  let guard = ref (8 * (n + 1)) in
  while not (is_balanced t b) do
    decr guard;
    if !guard = 0 then failwith "Bipartition.rebalance: bounds unsatisfiable";
    let heavy = if t.areas.(0) > b.hi then 0 else 1 in
    (* Draw random modules until one on the heavy side turns up; expected
       constant attempts since the heavy side holds most of the area. *)
    let rec pick tries =
      if tries = 0 then raise Exit
      else
        let v = Rng.int rng n in
        if t.side.(v) = heavy && movable v then v else pick (tries - 1)
    in
    match pick (4 * n) with
    | v ->
        move t v;
        incr moves
    | exception Exit -> failwith "Bipartition.rebalance: no module on heavy side"
  done;
  !moves

let recompute_cut t =
  let _, cut = compute_state t.h t.side in
  cut
