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
  locked : bool array; (* moved this pass, or fixed *)
  buckets : Gain_bucket.t array; (* (p * k) + q, p <> q *)
  order : int array; (* move stack: candidates (v * k) + q *)
  from : int array; (* source part of each module moved this pass *)
  (* Raw views for the gain update: the live part / pin-count / span stores
     of [kp] and the hypergraph CSR arrays, so a move's gain deltas are
     array arithmetic with no per-element calls or closures. *)
  side : int array;
  pins_on : int array; (* (k * e) + p *)
  spans : int array;
  noff : int array;
  pins : int array;
  moff : int array;
  mnets : int array;
  wts : int array;
  min_area : int;
  budget : int ref; (* balance budget of the direction being walked *)
  feas : int -> bool; (* module fits [budget]; one closure per run *)
  mutable chosen_gain : int; (* gain of the candidate [select] returned *)
}

(* Gain contributed by one net of weight [w] spanning [spans] parts to
   moving a pin out of a part holding [own] of its pins into a part
   holding [dst] of them. *)
let net_gain objective ~w ~spans ~own ~dst =
  let spans' = spans - (if own = 1 then 1 else 0) + if dst = 0 then 1 else 0 in
  match objective with
  | Sum_degrees -> w * (spans - spans')
  | Net_cut ->
      w * ((if spans >= 2 then 1 else 0) - if spans' >= 2 then 1 else 0)
  | Custom f -> f ~weight:w ~spans_before:spans ~spans_after:spans'

let current_gain st v q =
  let k = st.kk and thr = st.cfg.net_threshold in
  let p = st.side.(v) in
  let g = ref 0 in
  for i = st.moff.(v) to st.moff.(v + 1) - 1 do
    let e = st.mnets.(i) in
    if st.noff.(e + 1) - st.noff.(e) <= thr then
      g :=
        !g
        + net_gain st.cfg.objective ~w:st.wts.(e) ~spans:st.spans.(e)
            ~own:st.pins_on.((k * e) + p) ~dst:st.pins_on.((k * e) + q)
  done;
  !g

(* Pins of the net at [base] in part [r] before a move from [p] to [q],
   read from the post-move counts. *)
let count_before pins_on base r ~p ~q =
  if r = p then pins_on.(base + p) + 1
  else if r = q then pins_on.(base + q) - 1
  else pins_on.(base + r)

let bucket st p q = st.buckets.((p * st.kk) + q)

let insert_module st v =
  let p = st.side.(v) in
  for q = 0 to st.kk - 1 do
    if q <> p then Gain_bucket.insert (bucket st p q) v (current_gain st v q)
  done

let remove_module st v =
  let p = st.side.(v) in
  for q = 0 to st.kk - 1 do
    if q <> p then Gain_bucket.remove (bucket st p q) v
  done

(* Fixed modules are locked for the whole pass: never inserted, never
   moved, never adjusted. *)
let init_pass st =
  let n = H.num_modules st.h in
  Array.iter Gain_bucket.clear st.buckets;
  for v = 0 to n - 1 do
    let fixed = match st.fixed with Some f -> f.(v) >= 0 | None -> false in
    st.locked.(v) <- fixed;
    if not fixed then insert_module st v
  done

(* Move [v] to part [q], then adjust every free neighbour's gains by the
   difference between each net's contribution before and after.  The
   move changed only the counts of parts [p] and [q], by one pin each, so
   the pre-move counts and span follow from the post-move ones and need no
   snapshot.  Visiting order is part of the answer (LIFO buckets reinsert
   on every adjust): nets in reverse incidence order, pins in CSR order,
   targets ascending, and an adjust only when the gain changes. *)
let apply_move st v q =
  let p = st.side.(v) in
  st.locked.(v) <- true;
  remove_module st v;
  Kpartition.move st.kp v q;
  let k = st.kk and thr = st.cfg.net_threshold and obj = st.cfg.objective in
  let side = st.side and pins_on = st.pins_on and locked = st.locked in
  for i = st.moff.(v + 1) - 1 downto st.moff.(v) do
    let e = st.mnets.(i) in
    let off = st.noff.(e) and last = st.noff.(e + 1) - 1 in
    if last - off < thr then begin
      let w = st.wts.(e) and base = k * e in
      let new_p = pins_on.(base + p) and new_q = pins_on.(base + q) in
      let new_spans = st.spans.(e) in
      let old_spans =
        new_spans + (if new_p = 0 then 1 else 0) - if new_q = 1 then 1 else 0
      in
      for j = off to last do
        let u = st.pins.(j) in
        if not locked.(u) then begin
          let r = side.(u) in
          let own_new = pins_on.(base + r)
          and own_old = count_before pins_on base r ~p ~q in
          for t = 0 to k - 1 do
            if t <> r then begin
              let old_c =
                net_gain obj ~w ~spans:old_spans ~own:own_old
                  ~dst:(count_before pins_on base t ~p ~q)
              in
              let new_c =
                net_gain obj ~w ~spans:new_spans ~own:own_new
                  ~dst:pins_on.(base + t)
              in
              if old_c <> new_c then
                Gain_bucket.adjust st.buckets.((r * k) + t) u (new_c - old_c)
            end
          done
        end
      done
    end
  done

(* Best feasible candidate over all k(k-1) direction buckets, as
   [(v * k) + q], or -1; its gain is left in [chosen_gain].  A direction
   whose balance budget is below the smallest module area is skipped
   unwalked unless its bucket draws from its generator while walking
   (Random).  Ties keep the first direction in (p, q) order. *)
let select st =
  let k = st.kk in
  let best_v = ref (-1) and best_q = ref (-1) and best_g = ref min_int in
  for p = 0 to k - 1 do
    for q = 0 to k - 1 do
      if p <> q then begin
        let b = bucket st p q in
        st.budget := Kpartition.move_budget st.kp st.bounds p q;
        if !(st.budget) >= st.min_area || Gain_bucket.draws_on_select b
        then begin
          let v = Gain_bucket.select_satisfying b st.feas in
          if v >= 0 then begin
            let g = Gain_bucket.gain_of b v in
            if g > !best_g then begin
              best_v := v;
              best_q := q;
              best_g := g
            end
          end
        end
      end
    done
  done;
  st.chosen_gain <- !best_g;
  if !best_v < 0 then -1 else (!best_v * k) + !best_q

(* One best-prefix pass on [Refine_core]: a candidate encodes module [v]
   and target part [q] as [(v * k) + q]; the gain [select] found is the
   one [commit] credits. *)
let run_pass st =
  init_pass st;
  Refine_core.run_pass ~order:st.order
    {
      Refine_core.select = (fun () -> select st);
      commit =
        (fun c ->
          let v = c / st.kk in
          st.from.(v) <- st.side.(v);
          apply_move st v (c mod st.kk);
          st.chosen_gain);
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
  let areas = H.areas_store h in
  let budget = ref 0 in
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
      side = Kpartition.side_store kp;
      pins_on = Kpartition.pins_on_store kp;
      spans = Kpartition.spans_store kp;
      noff = H.net_offsets_store h;
      pins = H.net_pins_store h;
      moff = H.mod_offsets_store h;
      mnets = H.mod_nets_store h;
      wts = H.net_weights_store h;
      min_area = H.min_area h;
      budget;
      (* [Kpartition.move_is_feasible] for a module of the direction being
         walked: it sits in the source part, so only its area is tested. *)
      feas = (fun v -> areas.(v) <= !budget);
      chosen_gain = 0;
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
