module H = Mlpart_hypergraph.Hypergraph
module Builder = Mlpart_hypergraph.Builder
module Rng = Mlpart_util.Rng
module Ml_multiway = Mlpart_multilevel.Ml_multiway
module Trace = Mlpart_obs.Trace
module Metrics = Mlpart_obs.Metrics

let m_regions = Metrics.counter "place.regions"
let m_leaves = Metrics.counter "place.leaves"

type terminal_model = Ignore_external | Propagate_to_quadrant

type config = { leaf_size : int; terminal_model : terminal_model }

let default = { leaf_size = 12; terminal_model = Propagate_to_quadrant }

type result = {
  x : float array;
  y : float array;
  hpwl : float;
  regions : int;
  pads : int array;
  timed_out : bool;
}

let grid_legalize h ~x ~y =
  let n = H.num_modules h in
  let lx = Array.make n 0.0 and ly = Array.make n 0.0 in
  if n > 0 then begin
    let cols = int_of_float (ceil (sqrt (float_of_int n))) in
    let order = Array.init n Fun.id in
    Array.sort (fun a b -> compare (x.(a), y.(a), a) (x.(b), y.(b), b)) order;
    let per_col = (n + cols - 1) / cols in
    for c = 0 to cols - 1 do
      let base = c * per_col in
      let len = Stdlib.min per_col (n - base) in
      if len > 0 then begin
        let column = Array.sub order base len in
        Array.sort (fun a b -> compare (y.(a), x.(a), a) (y.(b), x.(b), b)) column;
        Array.iteri
          (fun row v ->
            lx.(v) <- (float_of_int c +. 0.5) /. float_of_int cols;
            ly.(v) <- (float_of_int row +. 0.5) /. float_of_int len)
          column
      end
    done
  end;
  (lx, ly)

type region = { x0 : float; y0 : float; x1 : float; y1 : float }

let centre r = ((r.x0 +. r.x1) /. 2.0, (r.y0 +. r.y1) /. 2.0)

(* Quadrant ids match Gordian: 0 = left-bottom, 1 = left-top,
   2 = right-bottom, 3 = right-top. *)
let quadrant_region r q =
  let mx = (r.x0 +. r.x1) /. 2.0 and my = (r.y0 +. r.y1) /. 2.0 in
  match q with
  | 0 -> { x0 = r.x0; y0 = r.y0; x1 = mx; y1 = my }
  | 1 -> { x0 = r.x0; y0 = my; x1 = mx; y1 = r.y1 }
  | 2 -> { x0 = mx; y0 = r.y0; x1 = r.x1; y1 = my }
  | 3 -> { x0 = mx; y0 = my; x1 = r.x1; y1 = r.y1 }
  | _ -> invalid_arg "quadrant_region"

let nearest_quadrant r (px, py) =
  let mx = (r.x0 +. r.x1) /. 2.0 and my = (r.y0 +. r.y1) /. 2.0 in
  (if px < mx then 0 else 2) + if py < my then 0 else 1

(* Final positions of a leaf region: a small grid in module order. *)
let place_leaf x y region members =
  let count = Array.length members in
  if count > 0 then begin
    let cols = int_of_float (ceil (sqrt (float_of_int count))) in
    let rows = (count + cols - 1) / cols in
    Array.iteri
      (fun i v ->
        let col = i mod cols and row = i / cols in
        x.(v) <-
          region.x0
          +. ((region.x1 -. region.x0) *. (float_of_int col +. 0.5)
              /. float_of_int cols);
        y.(v) <-
          region.y0
          +. ((region.y1 -. region.y0) *. (float_of_int row +. 0.5)
              /. float_of_int rows))
      members
  end

(* Extract the sub-netlist induced by [members] of [h].  Under
   [Propagate_to_quadrant], boundary-crossing nets gain a pin on one of at
   most four shared terminal modules — one per quadrant, pre-assigned there
   — chosen nearest the centroid of the net's external pins (current
   positions [x], [y]).  Sharing one terminal per quadrant keeps the fixed
   area negligible, so part balance stays feasible. *)
let sub_netlist config h region ~x ~y ~placed members =
  let count = Array.length members in
  let local_of = Hashtbl.create (2 * count) in
  Array.iteri (fun i v -> Hashtbl.add local_of v i) members;
  let builder = Builder.create () in
  Array.iter
    (fun v -> ignore (Builder.add_module builder ~area:(H.area h v) ()))
    members;
  let terminal = Array.make 4 (-1) in
  let terminal_for q =
    if terminal.(q) < 0 then terminal.(q) <- Builder.add_module builder ();
    terminal.(q)
  in
  let seen_net = Array.make (H.num_nets h) false in
  Array.iter
    (fun v ->
      H.iter_nets_of h v (fun e ->
          if not seen_net.(e) then begin
            seen_net.(e) <- true;
            let inside = ref [] in
            let out_x = ref 0.0 and out_y = ref 0.0 and out_n = ref 0 in
            H.iter_pins_of h e (fun u ->
                match Hashtbl.find_opt local_of u with
                | Some i -> inside := i :: !inside
                | None ->
                    (* only pins already placed (pads or other regions)
                       steer the cut *)
                    if placed.(u) then begin
                      out_x := !out_x +. x.(u);
                      out_y := !out_y +. y.(u);
                      incr out_n
                    end);
            match (!inside, config.terminal_model, !out_n) with
            | [], _, _ -> ()
            | inside, Propagate_to_quadrant, n when n > 0 ->
                let cx = !out_x /. float_of_int n
                and cy = !out_y /. float_of_int n in
                let q = nearest_quadrant region (cx, cy) in
                Builder.add_net builder (terminal_for q :: inside)
            | (_ :: _ :: _ as inside), Ignore_external, _
            | (_ :: _ :: _ as inside), Propagate_to_quadrant, _ ->
                Builder.add_net builder inside
            | [ _ ], (Ignore_external | Propagate_to_quadrant), _ -> ()
          end))
    members;
  let sub = Builder.build builder in
  let fixed_array = Array.make (H.num_modules sub) (-1) in
  Array.iteri (fun q t -> if t >= 0 then fixed_array.(t) <- q) terminal;
  (sub, fixed_array, count)

let run ?(config = default) ?deadline rng h =
  let n = H.num_modules h in
  let timed_out = ref false in
  let past_deadline () =
    match deadline with
    | None -> false
    | Some dl ->
        if Mlpart_util.Deadline.check dl then begin
          timed_out := true;
          true
        end
        else false
  in
  let x = Array.make n 0.0 and y = Array.make n 0.0 in
  let placed = Array.make n false in
  (* Pre-place the GORDIAN baseline's pads on the boundary. *)
  let pads = Gordian.pads h in
  Array.iter
    (fun (p, px, py) ->
      x.(p) <- px;
      y.(p) <- py;
      placed.(p) <- true)
    pads;
  let movable =
    Array.of_list
      (List.filter (fun v -> not placed.(v)) (List.init n Fun.id))
  in
  let regions = ref 0 in
  let die = { x0 = 0.0; y0 = 0.0; x1 = 1.0; y1 = 1.0 } in
  let rec refine depth region members =
    if Array.length members <= config.leaf_size then begin
      Metrics.incr m_leaves;
      place_leaf x y region members
    end
    else if past_deadline () then
      (* graceful degradation: no further quadrisection — spread the whole
         region like a leaf so every module still gets a legal coordinate *)
      place_leaf x y region members
    else begin
      incr regions;
      Metrics.incr m_regions;
      let t0 = Trace.start () in
      (* provisional positions: everyone at the region centre, so sibling
         regions see a sensible location for not-yet-refined modules *)
      let cx, cy = centre region in
      Array.iter
        (fun v ->
          x.(v) <- cx;
          y.(v) <- cy)
        members;
      let sub, fixed, count = sub_netlist config h region ~x ~y ~placed members in
      let side =
        if H.num_nets sub = 0 then
          (* no internal connectivity: balanced round-robin *)
          Array.init (H.num_modules sub) (fun i -> i mod 4)
        else begin
          let r = Ml_multiway.run ~fixed rng sub ~k:4 in
          r.Ml_multiway.side
        end
      in
      let buckets = Array.make 4 [] in
      for i = count - 1 downto 0 do
        let q = side.(i) in
        buckets.(q) <- members.(i) :: buckets.(q)
      done;
      (* mark as placed at quadrant centres before recursing so that later
         sibling refinements propagate terminals against them *)
      for q = 0 to 3 do
        let sub_region = quadrant_region region q in
        let qx, qy = centre sub_region in
        List.iter
          (fun v ->
            x.(v) <- qx;
            y.(v) <- qy;
            placed.(v) <- true)
          buckets.(q)
      done;
      (* span closes before recursing, so region timings are per-region
         quadrisection cost, not inclusive of the whole subtree *)
      if Trace.enabled () then
        Trace.complete ~cat:"place"
          ~args:
            [
              ("depth", Trace.Int depth);
              ("members", Trace.Int (Array.length members));
            ]
          "place/region" t0;
      if Array.exists (fun b -> List.compare_length_with b count = 0) buckets
      then
        (* every member landed in one quadrant: recursing would repeat the
           same split on a smaller region, so spread the region like a leaf *)
        place_leaf x y region members
      else
        for q = 0 to 3 do
          refine (depth + 1) (quadrant_region region q)
            (Array.of_list buckets.(q))
        done
    end
  in
  refine 0 die movable;
  {
    x;
    y;
    hpwl = Quadratic.hpwl h ~x ~y;
    regions = !regions;
    pads = Array.map (fun (p, _, _) -> p) pads;
    timed_out = !timed_out;
  }
