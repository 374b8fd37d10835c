module H = Mlpart_hypergraph.Hypergraph
module Rng = Mlpart_util.Rng

type graph = {
  areas : int array;
  net_pins : int array array;
  net_size : int array;
  net_weight : int array;
  mod_nets : int array array;
  mod_deg : int array;
}

let graph_of_hypergraph h =
  let n = H.num_modules h and m = H.num_nets h in
  let noff = H.net_offsets_store h in
  let pins = H.net_pins_store h in
  let moff = H.mod_offsets_store h in
  let mnets = H.mod_nets_store h in
  {
    areas = Array.copy (H.areas_store h);
    net_pins =
      Array.init m (fun e -> Array.sub pins noff.(e) (noff.(e + 1) - noff.(e)));
    net_size = Array.init m (fun e -> noff.(e + 1) - noff.(e));
    net_weight = Array.copy (H.net_weights_store h);
    mod_nets =
      Array.init n (fun v -> Array.sub mnets moff.(v) (moff.(v + 1) - moff.(v)));
    mod_deg = Array.init n (fun v -> moff.(v + 1) - moff.(v));
  }

type t = {
  g : graph;
  k : int;
  side : int array;
  pins_on : int array; (* (k * e) + p *)
  spans : int array; (* per net *)
  part_areas : int array;
  mutable cut : int;
  mutable sum_degrees : int;
}

(* Pin counts, spans, cut and sum of degrees of [side] over the live pins
   of [g]. *)
let compute_state g k side =
  let m = Array.length g.net_size in
  let pins_on = Array.make (k * m) 0 in
  let spans = Array.make m 0 in
  let cut = ref 0 in
  let sum_degrees = ref 0 in
  for e = 0 to m - 1 do
    let pins = g.net_pins.(e) in
    for j = 0 to g.net_size.(e) - 1 do
      let i = (k * e) + side.(pins.(j)) in
      if pins_on.(i) = 0 then spans.(e) <- spans.(e) + 1;
      pins_on.(i) <- pins_on.(i) + 1
    done;
    let w = g.net_weight.(e) in
    if spans.(e) >= 2 then cut := !cut + w;
    sum_degrees := !sum_degrees + (w * (spans.(e) - 1))
  done;
  (pins_on, spans, !cut, !sum_degrees)

let of_graph g ~k ~members side =
  let part_areas = Array.make k 0 in
  Array.iter
    (fun v -> part_areas.(side.(v)) <- part_areas.(side.(v)) + g.areas.(v))
    members;
  let pins_on, spans, cut, sum_degrees = compute_state g k side in
  { g; k; side; pins_on; spans; part_areas; cut; sum_degrees }

let check who h ~k side =
  if k < 2 then invalid_arg (who ^ ": k < 2");
  if Array.length side <> H.num_modules h then
    invalid_arg (who ^ ": length mismatch");
  Array.iteri
    (fun v p ->
      if p < 0 || p >= k then
        invalid_arg (Printf.sprintf "%s: part of %d is %d" who v p))
    side

let create h ~k side =
  check "Kpartition.create" h ~k side;
  of_graph (graph_of_hypergraph h) ~k
    ~members:(Array.init (H.num_modules h) Fun.id)
    (Array.copy side)

(* A net is cut iff some pin's part differs from its first pin's. *)
let cut_of h ~k side =
  check "Kpartition.cut_of" h ~k side;
  let noff = H.net_offsets_store h and pins = H.net_pins_store h in
  let wts = H.net_weights_store h in
  let cut = ref 0 in
  for e = 0 to H.num_nets h - 1 do
    let last = noff.(e + 1) in
    if noff.(e) < last then begin
      let p = side.(pins.(noff.(e))) and j = ref (noff.(e) + 1) in
      while !j < last && side.(pins.(!j)) = p do
        incr j
      done;
      if !j < last then cut := !cut + wts.(e)
    end
  done;
  !cut

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

let graph t = t.g
let k t = t.k
let side t v = t.side.(v)
let side_array t = Array.copy t.side
let area_of_part t p = t.part_areas.(p)
let pins_on t e p = t.pins_on.((t.k * e) + p)
let spans t e = t.spans.(e)
let cut t = t.cut
let sum_degrees t = t.sum_degrees
let side_store t = t.side
let pins_on_store t = t.pins_on
let spans_store t = t.spans
let areas_store t = t.part_areas

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

let is_balanced t b = Array.for_all (fun a -> excess b a = 0) t.part_areas

(* The one place the k-way balance arithmetic lives: a module of area [a]
   may leave a part of area [from_area] for one of area [to_area] iff
   [a <= budget], i.e. the source stays at or above [lo] and the target at
   or below [hi].  The predicate and the selectors' direction skip both
   read it. *)
let budget b ~from_area ~to_area = Int.min (b.hi - to_area) (from_area - b.lo)

let move_budget t b p q =
  budget b ~from_area:t.part_areas.(p) ~to_area:t.part_areas.(q)

let move_is_feasible t b v q =
  let p = t.side.(v) in
  p <> q && t.g.areas.(v) <= move_budget t b p q

let move t v q =
  let p = t.side.(v) in
  if p <> q then begin
    let a = t.g.areas.(v) in
    t.side.(v) <- q;
    t.part_areas.(p) <- t.part_areas.(p) - a;
    t.part_areas.(q) <- t.part_areas.(q) + a;
    let nets = t.g.mod_nets.(v) and wts = t.g.net_weight in
    let k = t.k and pins_on = t.pins_on and spans = t.spans in
    for i = 0 to t.g.mod_deg.(v) - 1 do
      let e = nets.(i) in
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

let activate t v ~part = t.side.(v) <- part

let add_pin t e v =
  let i = (t.k * e) + t.side.(v) in
  t.pins_on.(i) <- t.pins_on.(i) + 1

let rebalance ?fixed rng t b =
  let n = Array.length t.side in
  let is_free v = match fixed with Some f -> f.(v) < 0 | None -> true in
  let moves = ref 0 in
  let guard = ref (16 * (n + 1)) in
  while not (is_balanced t b) do
    decr guard;
    if !guard = 0 then failwith "Kpartition.rebalance: bounds unsatisfiable";
    (* Heaviest over-full part donates to the lightest part. *)
    let heavy = ref 0 and light = ref 0 in
    for p = 1 to t.k - 1 do
      if t.part_areas.(p) > t.part_areas.(!heavy) then heavy := p;
      if t.part_areas.(p) < t.part_areas.(!light) then light := p
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
  let _, _, cut, _ = compute_state t.g t.k t.side in
  cut
