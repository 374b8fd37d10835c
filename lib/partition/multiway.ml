module H = Mlpart_hypergraph.Hypergraph
module Rng = Mlpart_util.Rng

type objective =
  | Net_cut
  | Sum_degrees
  | Custom of (weight:int -> spans_before:int -> spans_after:int -> int)

type config = { objective : objective; tolerance : float }

let default = { objective = Sum_degrees; tolerance = 0.1 }

let net_threshold = Refine_core.net_threshold

type result = { side : int array; cut : int; sum_degrees : int }

let cut_of = Kpartition.cut_of

(* Reusable engine scratch, mirroring [Fm.arena]: per-run arrays and the
   k*k direction buckets, grown on demand and reconfigured per run.  A
   multilevel k-way driver threads one arena through every level.  Not safe
   to share between domains. *)
type arena = {
  mutable locked : bool array; (* moved this pass, or fixed *)
  mutable order : int array; (* move stack: candidates (v * k) + q *)
  mutable from : int array; (* source part of each module moved this pass *)
  mutable tail : int array; (* modules of an undone tail, latest move first *)
  mutable buckets : Gain_bucket.t array; (* (p * k) + q, p <> q *)
}

let create_arena () =
  {
    locked = [||];
    order = [||];
    from = [||];
    tail = [||];
    buckets = [||];
  }

let ensure_arena a n k =
  if Array.length a.locked < n then begin
    a.locked <- Array.make n false;
    a.order <- Array.make n 0;
    a.from <- Array.make n 0;
    a.tail <- Array.make n 0
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

(* ---- The k-way FM pass ---- *)

type source = {
  gain : int -> int -> int;
  move : (int -> int -> int -> unit) -> int -> int -> unit;
  undo : int array -> int array -> int -> unit;
}

type totals = { passes : int; moves : int; rolled_back : int }

(* One LIFO bucket per direction (p, q), keyed by [src.gain] at pass start
   and kept exact by the deltas [src.move] reports.  Each select keeps the
   best feasible head over all k(k-1) directions, ties to the first in
   (p, q) order; a direction whose balance budget is below the smallest
   module area is skipped unwalked.  A candidate encodes module [v] and
   target [q] as [(v * k) + q]. *)
let refine ?fixed ?(max_passes = max_int) ?early_exit ~max_gain a rng
    (bounds : Kpartition.bounds) kp src =
  let k = Kpartition.k kp and areas = (Kpartition.graph kp).areas in
  let n = Array.length areas in
  ensure_arena a n k;
  (* One split per direction bucket in ascending (p * k + q) order: LIFO
     buckets never draw, but the splits advance the caller's generator. *)
  for i = 0 to (k * k) - 1 do
    Gain_bucket.reinit ~rng:(Rng.split rng) ~policy:Gain_bucket.Lifo
      ~min_gain:(-max_gain) ~max_gain ~capacity:n a.buckets.(i)
  done;
  let { locked; order; from; tail; buckets } = a in
  let side = Kpartition.side_store kp in
  let part_area = Kpartition.areas_store kp in
  let min_area = Array.fold_left Int.min max_int areas in
  let budget = ref 0 and chosen_gain = ref 0 in
  (* [Kpartition.move_is_feasible] for a module of the direction being
     walked: it sits in the source part, so only its area is tested. *)
  let feas v = areas.(v) <= !budget in
  let report w r d =
    if not locked.(w) then Gain_bucket.adjust buckets.((side.(w) * k) + r) w d
  in
  (* Fixed modules are locked for the whole pass: never inserted, never
     moved, never adjusted. *)
  let fill () =
    Array.iter Gain_bucket.clear buckets;
    for v = 0 to n - 1 do
      let pinned = match fixed with Some f -> f.(v) >= 0 | None -> false in
      locked.(v) <- pinned;
      if not pinned then
        for q = 0 to k - 1 do
          if q <> side.(v) then
            Gain_bucket.insert buckets.((side.(v) * k) + q) v (src.gain v q)
        done
    done
  in
  let select () =
    let best = ref (-1) and best_g = ref min_int in
    for p = 0 to k - 1 do
      for q = 0 to k - 1 do
        if p <> q then begin
          budget :=
            Kpartition.budget bounds ~from_area:part_area.(p)
              ~to_area:part_area.(q);
          if !budget >= min_area then begin
            let b = buckets.((p * k) + q) in
            let v = Gain_bucket.select_satisfying b feas in
            if v >= 0 then begin
              let g = Gain_bucket.gain_of b v in
              if g > !best_g then begin
                best := (v * k) + q;
                best_g := g
              end
            end
          end
        end
      done
    done;
    chosen_gain := !best_g;
    !best
  in
  let commit c =
    let v = c / k and p = side.(c / k) in
    locked.(v) <- true;
    for r = 0 to k - 1 do
      if r <> p then Gain_bucket.remove buckets.((p * k) + r) v
    done;
    from.(v) <- p;
    src.move report v (c mod k);
    !chosen_gain
  in
  let undo ~lo ~hi =
    for i = 0 to hi - lo - 1 do
      tail.(i) <- order.(hi - 1 - i) / k
    done;
    src.undo tail from (hi - lo)
  in
  let ops =
    {
      Refine_core.select;
      commit;
      undo;
      rebuild = (fun ~first_bad:_ ~kept:_ -> ());
    }
  in
  let rolled_back = ref 0 in
  let passes, moves =
    Refine_core.drive ~max_passes (fun ~pass:_ ->
        fill ();
        let p = Refine_core.run_pass ~order ?early_exit ops in
        rolled_back := !rolled_back + p.Refine_core.rolled_back;
        p)
  in
  { passes; moves; rolled_back = !rolled_back }

(* ---- Multiway's own gains, over a [Kpartition] ---- *)

type state = {
  objective : objective;
  kp : Kpartition.t;
  kk : int;
  arena : arena; (* the pass's locks and buckets, adjusted in place *)
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
  let k = st.kk in
  let p = st.side.(v) in
  let g = ref 0 in
  for i = st.moff.(v) to st.moff.(v + 1) - 1 do
    let e = st.mnets.(i) in
    if st.noff.(e + 1) - st.noff.(e) <= net_threshold then
      g :=
        !g
        + net_gain st.objective ~w:st.wts.(e) ~spans:st.spans.(e)
            ~own:st.pins_on.((k * e) + p) ~dst:st.pins_on.((k * e) + q)
  done;
  !g

(* Pins of the net at [base] in part [r] before a move from [p] to [q],
   read from the post-move counts. *)
let count_before pins_on base r ~p ~q =
  if r = p then pins_on.(base + p) + 1
  else if r = q then pins_on.(base + q) - 1
  else pins_on.(base + r)

(* Move [v] to part [q], then adjust every free neighbour's gains by the
   difference between each net's contribution before and after.  The
   move changed only the counts of parts [p] and [q], by one pin each, so
   the pre-move counts and span follow from the post-move ones and need no
   snapshot.  The adjusts are the pass's [report], written out on the
   arena's buckets so the loop calls no closure.  Visiting order is part of
   the answer (LIFO buckets reinsert on every adjust): nets in reverse
   incidence order, pins in CSR order, targets ascending, and an adjust
   only when the gain changes. *)
let apply_move st v q =
  let p = st.side.(v) in
  Kpartition.move st.kp v q;
  let k = st.kk and obj = st.objective in
  let side = st.side and pins_on = st.pins_on in
  let locked = st.arena.locked and buckets = st.arena.buckets in
  for i = st.moff.(v + 1) - 1 downto st.moff.(v) do
    let e = st.mnets.(i) in
    let off = st.noff.(e) and last = st.noff.(e + 1) - 1 in
    if last - off < net_threshold then begin
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
                Gain_bucket.adjust buckets.((r * k) + t) u (new_c - old_c)
            end
          done
        end
      done
    end
  done

let run ?(config = default) ?init ?fixed ?arena rng h ~k =
  if k < 2 then invalid_arg "Multiway.run: k < 2";
  let bounds = Kpartition.bounds ~tolerance:config.tolerance h ~k in
  let kp =
    match init with
    | Some side ->
        (* A pinned module starts in its own part, whatever [init] says. *)
        let pin v p =
          match fixed with Some f when f.(v) >= 0 -> f.(v) | _ -> p
        in
        Kpartition.create h ~k (Array.mapi pin side)
    | None -> Kpartition.random ?fixed rng h ~k
  in
  if not (Kpartition.is_balanced kp bounds) then
    ignore (Kpartition.rebalance ?fixed rng kp bounds);
  let wdeg = Stdlib.max 1 (H.max_weighted_degree h) in
  (* Custom objectives may scale each net's contribution by up to k. *)
  let max_gain =
    match config.objective with
    | Net_cut | Sum_degrees -> wdeg
    | Custom _ -> k * wdeg
  in
  let st =
    {
      objective = config.objective;
      kp;
      kk = k;
      arena = (match arena with Some a -> a | None -> create_arena ());
      side = Kpartition.side_store kp;
      pins_on = Kpartition.pins_on_store kp;
      spans = Kpartition.spans_store kp;
      noff = H.net_offsets_store h;
      pins = H.net_pins_store h;
      moff = H.mod_offsets_store h;
      mnets = H.mod_nets_store h;
      wts = H.net_weights_store h;
    }
  in
  ignore
    (refine ?fixed ~max_gain st.arena rng bounds kp
       {
         gain = current_gain st;
         move = (fun _report v q -> apply_move st v q);
         undo =
           (fun vs from len ->
             for i = 0 to len - 1 do
               Kpartition.move kp vs.(i) from.(vs.(i))
             done);
       });
  {
    side = Kpartition.side_array kp;
    cut = Kpartition.cut kp;
    sum_degrees = Kpartition.sum_degrees kp;
  }
