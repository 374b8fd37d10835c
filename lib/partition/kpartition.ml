module H = Mlpart_hypergraph.Hypergraph
module Rng = Mlpart_util.Rng

type t = {
  h : H.t;
  k : int;
  side : int array;
  pins_on : int array; (* (k * e) + p *)
  spans : int array; (* per net *)
  areas : int array; (* per part *)
  mutable cut : int;
  mutable sum_degrees : int;
}

let compute_state h k side =
  let m = H.num_nets h in
  let pins_on = Array.make (k * m) 0 in
  let spans = Array.make m 0 in
  let cut = ref 0 in
  let sum_degrees = ref 0 in
  for e = 0 to m - 1 do
    H.iter_pins_of h e (fun v ->
        let p = side.(v) in
        let i = (k * e) + p in
        if pins_on.(i) = 0 then spans.(e) <- spans.(e) + 1;
        pins_on.(i) <- pins_on.(i) + 1);
    let w = H.net_weight h e in
    if spans.(e) >= 2 then cut := !cut + w;
    sum_degrees := !sum_degrees + (w * (spans.(e) - 1))
  done;
  (pins_on, spans, !cut, !sum_degrees)

let create h ~k side =
  let n = H.num_modules h in
  if k < 2 then invalid_arg "Kpartition.create: k < 2";
  if Array.length side <> n then invalid_arg "Kpartition.create: length mismatch";
  Array.iteri
    (fun v p ->
      if p < 0 || p >= k then
        invalid_arg (Printf.sprintf "Kpartition.create: part of %d is %d" v p))
    side;
  let side = Array.copy side in
  let areas = Array.make k 0 in
  for v = 0 to n - 1 do
    areas.(side.(v)) <- areas.(side.(v)) + H.area h v
  done;
  let pins_on, spans, cut, sum_degrees = compute_state h k side in
  { h; k; side; pins_on; spans; areas; cut; sum_degrees }

let random ?fixed rng h ~k =
  let n = H.num_modules h in
  let side = Array.make n (-1) in
  let areas = Array.make k 0 in
  (match fixed with
  | Some f ->
      Array.iteri
        (fun v p ->
          if p >= 0 then begin
            side.(v) <- p;
            areas.(p) <- areas.(p) + H.area h v
          end)
        f
  | None -> ());
  let perm = Rng.permutation rng n in
  Array.iter
    (fun v ->
      if side.(v) < 0 then begin
        let lightest = ref 0 in
        for p = 1 to k - 1 do
          if areas.(p) < areas.(!lightest) then lightest := p
        done;
        side.(v) <- !lightest;
        areas.(!lightest) <- areas.(!lightest) + H.area h v
      end)
    perm;
  create h ~k side

let k t = t.k
let side t v = t.side.(v)
let side_array t = Array.copy t.side
let area_of_part t p = t.areas.(p)
let pins_on t e p = t.pins_on.((t.k * e) + p)
let spans t e = t.spans.(e)
let cut t = t.cut
let sum_degrees t = t.sum_degrees
let side_store t = t.side
let pins_on_store t = t.pins_on
let spans_store t = t.spans
let areas_store t = t.areas

type bounds = { lo : int; hi : int }

let bounds ?(tolerance = 0.1) h ~k =
  let total = H.total_area h in
  let share = total / k in
  let slack =
    Stdlib.max (H.max_area h)
      (int_of_float (tolerance *. float_of_int total /. float_of_int k))
  in
  { lo = Stdlib.max 0 (share - slack); hi = Stdlib.min total (share + slack + k) }

let excess b area =
  if area > b.hi then area - b.hi else if area < b.lo then area - b.lo else 0

let is_balanced t b = Array.for_all (fun a -> excess b a = 0) t.areas

(* The one place the k-way balance arithmetic lives: a module of area [a]
   may leave a part of area [from_area] for one of area [to_area] iff
   [a <= budget], i.e. the source stays at or above [lo] and the target at
   or below [hi].  The predicate and the selectors' direction skip both
   read it. *)
let budget b ~from_area ~to_area = Int.min (b.hi - to_area) (from_area - b.lo)
let move_budget t b p q = budget b ~from_area:t.areas.(p) ~to_area:t.areas.(q)

let move_is_feasible t b v q =
  let p = t.side.(v) in
  p <> q && H.area t.h v <= move_budget t b p q

let move t v q =
  let p = t.side.(v) in
  if p <> q then begin
    let a = H.area t.h v in
    t.side.(v) <- q;
    t.areas.(p) <- t.areas.(p) - a;
    t.areas.(q) <- t.areas.(q) + a;
    let moff = H.mod_offsets_store t.h and mnets = H.mod_nets_store t.h in
    let wts = H.net_weights_store t.h in
    let k = t.k and pins_on = t.pins_on and spans = t.spans in
    for i = moff.(v) to moff.(v + 1) - 1 do
      let e = mnets.(i) in
      let pi = (k * e) + p and qi = (k * e) + q in
      let np = pins_on.(pi) - 1 and nq = pins_on.(qi) + 1 in
      pins_on.(pi) <- np;
      pins_on.(qi) <- nq;
      let old_spans = spans.(e) in
      let spans' =
        old_spans - (if np = 0 then 1 else 0) + if nq = 1 then 1 else 0
      in
      if spans' <> old_spans then begin
        let w = wts.(e) in
        spans.(e) <- spans';
        t.sum_degrees <- t.sum_degrees + (w * (spans' - old_spans));
        if old_spans >= 2 && spans' < 2 then t.cut <- t.cut - w
        else if old_spans < 2 && spans' >= 2 then t.cut <- t.cut + w
      end
    done
  end

let rebalance ?fixed rng t b =
  let n = H.num_modules t.h in
  let is_free v = match fixed with Some f -> f.(v) < 0 | None -> true in
  let moves = ref 0 in
  let guard = ref (16 * (n + 1)) in
  while not (is_balanced t b) do
    decr guard;
    if !guard = 0 then failwith "Kpartition.rebalance: bounds unsatisfiable";
    (* Heaviest over-full part donates to the lightest part. *)
    let heavy = ref 0 and light = ref 0 in
    for p = 1 to t.k - 1 do
      if t.areas.(p) > t.areas.(!heavy) then heavy := p;
      if t.areas.(p) < t.areas.(!light) then light := p
    done;
    let rec pick tries =
      if tries = 0 then failwith "Kpartition.rebalance: no movable module"
      else
        let v = Rng.int rng n in
        if t.side.(v) = !heavy && is_free v then v else pick (tries - 1)
    in
    let v = pick (8 * n) in
    move t v !light;
    incr moves
  done;
  !moves

let recompute_cut t =
  let _, _, cut, _ = compute_state t.h t.k t.side in
  cut
