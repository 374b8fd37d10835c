module H = Mlpart_hypergraph.Hypergraph
module Rng = Mlpart_util.Rng

type objective =
  | Net_cut
  | Sum_degrees
  | Custom of (weight:int -> spans_before:int -> spans_after:int -> int)

type config = {
  objective : objective;
  policy : Gain_bucket.policy;
  net_threshold : int;
  tolerance : float;
  max_passes : int;
}

let default =
  {
    objective = Sum_degrees;
    policy = Gain_bucket.Lifo;
    net_threshold = 200;
    tolerance = 0.1;
    max_passes = max_int;
  }

type result = {
  side : int array;
  cut : int;
  sum_degrees : int;
  passes : int;
  moves : int;
}

let cut_of h ~k side = Kpartition.cut (Kpartition.create h ~k side)

(* Reusable engine scratch, mirroring [Fm.arena]: per-run arrays and the
   k*k direction buckets, grown on demand and reconfigured per run.  A
   multilevel k-way driver threads one arena through every level.  Not safe
   to share between domains. *)
type arena = {
  mutable locked : bool array;
  mutable order : int array;
  mutable from : int array;
  mutable buckets : Gain_bucket.t array;
}

let create_arena () = { locked = [||]; order = [||]; from = [||]; buckets = [||] }

let ensure_arena a n k =
  if Array.length a.locked < n then begin
    a.locked <- Array.make n false;
    a.order <- Array.make n 0;
    a.from <- Array.make n 0
  end;
  if Array.length a.buckets < k * k then begin
    let old = a.buckets in
    a.buckets <-
      Array.init (k * k) (fun i ->
          if i < Array.length old then old.(i)
          else
            Gain_bucket.create ~policy:Gain_bucket.Lifo ~min_gain:0 ~max_gain:0
              ~capacity:0 ())
  end

type state = {
  cfg : config;
  h : H.t;
  kp : Kpartition.t;
  kk : int;
  bounds : Kpartition.bounds;
  fixed : int array option;
  locked : bool array;
  buckets : Gain_bucket.t array; (* (p * k) + q, p <> q *)
  order : int array; (* move stack: candidates (v * k) + q *)
  from : int array; (* source part of each module moved this pass *)
}

let is_fixed st v = match st.fixed with Some f -> f.(v) >= 0 | None -> false

(* Gain contributed by one net to moving a pin from its part to [q], given
   (possibly historical) pin counts supplied by [pins] and [spans]. *)
let net_gain st ~pins ~spans ~w ~u_side ~q =
  let spans' =
    spans - (if pins u_side = 1 then 1 else 0) + if pins q = 0 then 1 else 0
  in
  match st.cfg.objective with
  | Sum_degrees -> w * (spans - spans')
  | Net_cut ->
      w * ((if spans >= 2 then 1 else 0) - if spans' >= 2 then 1 else 0)
  | Custom f -> f ~weight:w ~spans_before:spans ~spans_after:spans'

let current_gain st v q =
  let p = Kpartition.side st.kp v in
  H.fold_nets_of st.h v ~init:0 ~f:(fun acc e ->
      if H.net_size st.h e > st.cfg.net_threshold then acc
      else
        acc
        + net_gain st
            ~pins:(fun part -> Kpartition.pins_on st.kp e part)
            ~spans:(Kpartition.spans st.kp e)
            ~w:(H.net_weight st.h e) ~u_side:p ~q)

let bucket st p q = st.buckets.((p * st.kk) + q)

let insert_module st v =
  let p = Kpartition.side st.kp v in
  for q = 0 to st.kk - 1 do
    if q <> p then Gain_bucket.insert (bucket st p q) v (current_gain st v q)
  done

let remove_module st v =
  let p = Kpartition.side st.kp v in
  for q = 0 to st.kk - 1 do
    if q <> p then Gain_bucket.remove (bucket st p q) v
  done

let init_pass st =
  let n = H.num_modules st.h in
  Array.fill st.locked 0 n false;
  Array.iter Gain_bucket.clear st.buckets;
  for v = 0 to n - 1 do
    if not (is_fixed st v) then insert_module st v
  done

(* Move [v] to part [q], updating neighbours' gains from per-net before and
   after snapshots of the two affected parts. *)
let apply_move st v q =
  let p = Kpartition.side st.kp v in
  st.locked.(v) <- true;
  remove_module st v;
  let thr = st.cfg.net_threshold in
  (* Snapshot the counts this move will change, per incident net. *)
  let saved =
    H.fold_nets_of st.h v ~init:[] ~f:(fun acc e ->
        if H.net_size st.h e > thr then acc
        else
          (e, Kpartition.pins_on st.kp e p, Kpartition.pins_on st.kp e q,
           Kpartition.spans st.kp e)
          :: acc)
  in
  Kpartition.move st.kp v q;
  List.iter
    (fun (e, old_p, old_q, old_spans) ->
      let w = H.net_weight st.h e in
      let old_pins part =
        if part = p then old_p
        else if part = q then old_q
        else Kpartition.pins_on st.kp e part
      in
      let new_pins part = Kpartition.pins_on st.kp e part in
      let new_spans = Kpartition.spans st.kp e in
      H.iter_pins_of st.h e (fun u ->
          if (not st.locked.(u)) && not (is_fixed st u) then begin
            let u_side = Kpartition.side st.kp u in
            for q' = 0 to st.kk - 1 do
              if q' <> u_side then begin
                let old_c =
                  net_gain st ~pins:old_pins ~spans:old_spans ~w ~u_side ~q:q'
                in
                let new_c =
                  net_gain st ~pins:new_pins ~spans:new_spans ~w ~u_side ~q:q'
                in
                if old_c <> new_c then
                  Gain_bucket.adjust (bucket st u_side q') u (new_c - old_c)
              end
            done
          end))
    saved

let select st =
  let best = ref None in
  for p = 0 to st.kk - 1 do
    for q = 0 to st.kk - 1 do
      if p <> q then
        match
          Gain_bucket.select_max_satisfying (bucket st p q) (fun v ->
              Kpartition.move_is_feasible st.kp st.bounds v q)
        with
        | Some (v, g) -> begin
            match !best with
            | Some (_, _, bg) when bg >= g -> ()
            | Some _ | None -> best := Some (v, q, g)
          end
        | None -> ()
    done
  done;
  !best

(* One best-prefix pass on [Refine_core]: a candidate encodes module [v]
   and target part [q] as [(v * k) + q]; the gain [select] found is the
   one [commit] credits. *)
let run_pass st =
  init_pass st;
  let gain = ref 0 in
  Refine_core.run_pass ~order:st.order
    {
      Refine_core.select =
        (fun () ->
          match select st with
          | None -> -1
          | Some (v, q, g) ->
              gain := g;
              (v * st.kk) + q);
      commit =
        (fun c ->
          let v = c / st.kk in
          st.from.(v) <- Kpartition.side st.kp v;
          apply_move st v (c mod st.kk);
          !gain);
      undo = (fun c -> Kpartition.move st.kp (c / st.kk) st.from.(c / st.kk));
      rebuild = (fun ~first_bad:_ ~kept:_ -> ());
    }

let run ?(config = default) ?init ?fixed ?arena rng h ~k =
  if k < 2 then invalid_arg "Multiway.run: k < 2";
  let bounds = Kpartition.bounds ~tolerance:config.tolerance h ~k in
  let kp =
    match init with
    | Some side -> Kpartition.create h ~k side
    | None -> Kpartition.random ?fixed rng h ~k
  in
  if not (Kpartition.is_balanced kp bounds) then
    ignore (Kpartition.rebalance ?fixed rng kp bounds);
  let n = H.num_modules h in
  let wdeg = Stdlib.max 1 (H.max_weighted_degree h) in
  (* Custom objectives may scale each net's contribution by up to k. *)
  let range =
    match config.objective with
    | Net_cut | Sum_degrees -> wdeg
    | Custom _ -> k * wdeg
  in
  let a = match arena with Some a -> a | None -> create_arena () in
  ensure_arena a n k;
  (* One split per direction bucket in ascending (p * k + q) order, exactly
     as the former [Array.init] evaluated them. *)
  for i = 0 to (k * k) - 1 do
    Gain_bucket.reinit ~rng:(Rng.split rng) ~policy:config.policy
      ~min_gain:(-range) ~max_gain:range ~capacity:n a.buckets.(i)
  done;
  let st =
    {
      cfg = config;
      h;
      kp;
      kk = k;
      bounds;
      fixed;
      locked = a.locked;
      buckets = a.buckets;
      order = a.order;
      from = a.from;
    }
  in
  let passes, moves =
    Refine_core.drive ~max_passes:config.max_passes (fun ~pass:_ -> run_pass st)
  in
  {
    side = Kpartition.side_array st.kp;
    cut = Kpartition.cut st.kp;
    sum_degrees = Kpartition.sum_degrees st.kp;
    passes;
    moves;
  }
