module H = Mlpart_hypergraph.Hypergraph
module Rng = Mlpart_util.Rng
module Multistart = Mlpart_util.Multistart
module Trace = Mlpart_obs.Trace
module Metrics = Mlpart_obs.Metrics
module Cache = Mlpart_partition.Gain_cache
module Multiway = Mlpart_partition.Multiway
module Kpartition = Mlpart_partition.Kpartition

let m_runs = Metrics.counter "nlevel.runs"
let m_contractions = Metrics.counter "nlevel.contractions"
let m_uncontractions = Metrics.counter "nlevel.uncontractions"
let m_moves = Metrics.counter "nlevel.moves"

(* Contraction stops at [max threshold (2 k)] live vertices: few enough
   for cheap multi-start initial partitioning, enough for k parts. *)
let threshold = 40

(* Nets above this size are invisible to pair ratings: sharing a huge net
   says little about which two of its pins belong together. *)
let max_net_size = 50

(* A pair may merge only while its area stays within this factor of the
   average coarse vertex (total area / threshold), so no cluster grows too
   large to balance. *)
let cluster_area_factor = 4.0

(* Seeded Multiway starts on the coarsest snapshot; the best cut wins. *)
let initial_starts = 4

(* Move budget of the localized refinement around each restored pair,
   which keeps every uncontraction step cheap. *)
let local_moves_cap = 32

(* At most this many passes of the final FM polish: the localized
   refinement already did most of the work, and each pass ends early
   ([polish_streak]). *)
let polish_passes = 4

(* A polish pass on [n] modules ends after this many consecutive moves
   that do not beat its best prefix.  Run to the end, the passes rolled
   back 7,557 of the 8,600 moves they committed on primary2 at k = 3.  At
   k >= 3 the longest fruitless streak that still ended in a new best was
   at most 0.15 n over seeds 1-8 of the Small tier and industry2, and
   reached this limit in 4 of those 288 runs (DESIGN.md §12).  The floor
   keeps every netlist of at most 200 modules on full passes.  At k = 2
   such streaks reach n - 3, so 2-way cuts can rise. *)
let polish_streak n = Stdlib.max 200 (n / 8)

type result = { side : int array; cut : int; contractions : int; moves : int }

(* One contraction's undo record: [v] was merged into [u].  [both] are the
   nets that held both endpoints (v's pin was dropped, shrinking the live
   prefix); the top [pushed] entries of u's incidence list are the nets
   that held only v (their pin was renamed v -> u and the net appended to
   u's list).  Replaying the trail in reverse restores the exact live
   structure at each step, so slot positions recorded here stay valid. *)
type memento = { u : int; v : int; both : int array; pushed : int }

type hierarchy = {
  g : Kpartition.graph;
  alive : bool array;
  mutable n_alive : int;
  mutable trail : memento list;
  mutable contractions : int;
}

let hierarchy_of h =
  let n = H.num_modules h in
  {
    g = Kpartition.graph_of_hypergraph h;
    alive = Array.make n true;
    n_alive = n;
    trail = [];
    contractions = 0;
  }

let push_net g u e =
  let d = g.Kpartition.mod_deg.(u) in
  let arr = g.Kpartition.mod_nets.(u) in
  if d = Array.length arr then begin
    let arr' = Array.make (Stdlib.max 4 (2 * d)) 0 in
    Array.blit arr 0 arr' 0 d;
    g.Kpartition.mod_nets.(u) <- arr'
  end;
  g.Kpartition.mod_nets.(u).(d) <- e;
  g.Kpartition.mod_deg.(u) <- d + 1

(* Contract [v] into [u]: one vertex disappears, every net of [v] either
   drops its v pin (u already present) or has it renamed to u. *)
let contract hy u v =
  let g = hy.g in
  let both = ref [] in
  let pushed = ref 0 in
  for i = 0 to g.Kpartition.mod_deg.(v) - 1 do
    let e = g.Kpartition.mod_nets.(v).(i) in
    let pins = g.Kpartition.net_pins.(e) in
    let s = g.Kpartition.net_size.(e) in
    let has_u = ref false in
    let v_slot = ref (-1) in
    for j = 0 to s - 1 do
      if pins.(j) = u then has_u := true;
      if pins.(j) = v then v_slot := j
    done;
    if !has_u then begin
      pins.(!v_slot) <- pins.(s - 1);
      g.Kpartition.net_size.(e) <- s - 1;
      both := e :: !both
    end
    else begin
      pins.(!v_slot) <- u;
      push_net g u e;
      incr pushed
    end
  done;
  g.Kpartition.areas.(u) <- g.Kpartition.areas.(u) + g.Kpartition.areas.(v);
  hy.alive.(v) <- false;
  hy.n_alive <- hy.n_alive - 1;
  hy.contractions <- hy.contractions + 1;
  hy.trail <- { u; v; both = Array.of_list !both; pushed = !pushed } :: hy.trail

(* Undo one contraction.  [v] rejoins in [u]'s part, which leaves every
   span, the cut and the part areas unchanged, so a riding cache needs one
   O(k) edit per net instead of a retract and re-derive over all its pins:
   a renamed pin hands [u]'s terms to [v] ([Cache.rename_pin]); an appended
   pin changes at most [v]'s penalty and [u]'s benefits, and grows [u]'s
   part's pin count in the partition ([Cache.append_pin]). *)
let uncontract ?cache hy m =
  let g = hy.g in
  (match cache with
  | Some c ->
      let kp = Cache.partition c in
      Kpartition.activate kp m.v ~part:(Kpartition.side kp m.u)
  | None -> ());
  for _ = 1 to m.pushed do
    let d = g.Kpartition.mod_deg.(m.u) - 1 in
    let e = g.Kpartition.mod_nets.(m.u).(d) in
    g.Kpartition.mod_deg.(m.u) <- d;
    (match cache with
    | Some c -> Cache.rename_pin c e ~u:m.u ~v:m.v
    | None -> ());
    let pins = g.Kpartition.net_pins.(e) in
    let j = ref 0 in
    while pins.(!j) <> m.u do
      incr j
    done;
    pins.(!j) <- m.v
  done;
  Array.iter
    (fun e ->
      (match cache with
      | Some c -> Cache.append_pin c e ~u:m.u ~v:m.v
      | None -> ());
      let s = g.Kpartition.net_size.(e) in
      g.Kpartition.net_pins.(e).(s) <- m.v;
      g.Kpartition.net_size.(e) <- s + 1)
    m.both;
  g.Kpartition.areas.(m.u) <-
    g.Kpartition.areas.(m.u) - g.Kpartition.areas.(m.v);
  hy.alive.(m.v) <- true;
  hy.n_alive <- hy.n_alive + 1

(* Heavy-edge-style partner rating: connectivity (weight / (size - 1))
   summed over shared small nets, scaled down by the pair's area product —
   the multilevel clustering rating, evaluated against the *current*
   contracted structure rather than a per-level snapshot. *)
type scratch = {
  score : float array;
  seen : int array;
  mutable stamp : int;
  cand : int array;
  mutable ncand : int;
}

let make_scratch n =
  {
    score = Array.make n 0.;
    seen = Array.make n 0;
    stamp = 0;
    cand = Array.make n 0;
    ncand = 0;
  }

let best_partner hy sc ~area_cap u =
  let g = hy.g in
  sc.stamp <- sc.stamp + 1;
  sc.ncand <- 0;
  let au = g.Kpartition.areas.(u) in
  for i = 0 to g.Kpartition.mod_deg.(u) - 1 do
    let e = g.Kpartition.mod_nets.(u).(i) in
    let s = g.Kpartition.net_size.(e) in
    if s >= 2 && s <= max_net_size then begin
      let contrib =
        float_of_int g.Kpartition.net_weight.(e) /. float_of_int (s - 1)
      in
      let pins = g.Kpartition.net_pins.(e) in
      for j = 0 to s - 1 do
        let w = pins.(j) in
        if w <> u && au + g.Kpartition.areas.(w) <= area_cap then begin
          if sc.seen.(w) <> sc.stamp then begin
            sc.seen.(w) <- sc.stamp;
            sc.score.(w) <- 0.;
            sc.cand.(sc.ncand) <- w;
            sc.ncand <- sc.ncand + 1
          end;
          sc.score.(w) <- sc.score.(w) +. contrib
        end
      done
    end
  done;
  let best = ref (-1) in
  let best_key = ref 0. in
  for i = 0 to sc.ncand - 1 do
    let w = sc.cand.(i) in
    let key = sc.score.(w) /. float_of_int (au * g.Kpartition.areas.(w)) in
    if !best < 0 || key > !best_key || (key = !best_key && w < !best) then begin
      best := w;
      best_key := key
    end
  done;
  !best

(* Sweep vertices in a fresh seeded permutation, contracting each one's
   best-rated partner immediately (so later ratings in the same sweep see
   the updated structure); stop at the target size or when a whole sweep
   finds nothing contractible. *)
let coarsen hy rng h ~stop_at =
  let area_cap =
    Stdlib.max (H.max_area h)
      (int_of_float
         (cluster_area_factor *. float_of_int (H.total_area h)
         /. float_of_int stop_at))
  in
  let n = Array.length hy.alive in
  let sc = make_scratch n in
  let perm = Array.init n Fun.id in
  let progress = ref true in
  while hy.n_alive > stop_at && !progress do
    progress := false;
    Rng.shuffle_in_place rng perm;
    (try
       Array.iter
         (fun u ->
           if hy.n_alive <= stop_at then raise Exit;
           if hy.alive.(u) then
             let v = best_partner hy sc ~area_cap u in
             if v >= 0 then begin
               contract hy u v;
               progress := true
             end)
         perm
     with Exit -> ())
  done

let coarsen_only ?(threshold = threshold) rng h =
  let hy = hierarchy_of h in
  coarsen hy rng h ~stop_at:(Stdlib.max 1 threshold);
  hy

let uncontract_step ?cache hy =
  match hy.trail with
  | [] -> false
  | m :: rest ->
      hy.trail <- rest;
      uncontract ?cache hy m;
      true

let uncontract_all hy =
  while uncontract_step hy do
    ()
  done

let graph hy = hy.g
let num_alive hy = hy.n_alive
let trail_length hy = List.length hy.trail
let is_alive hy v = hy.alive.(v)
let module_area hy v = hy.g.Kpartition.areas.(v)

let live_net_pins hy e =
  let a = Array.sub hy.g.Kpartition.net_pins.(e) 0 hy.g.Kpartition.net_size.(e) in
  Array.sort Int.compare a;
  a

(* Coarsest-level snapshot: the live structure compacted into an immutable
   netlist (single-pin fully contracted nets are uncut by definition and
   left out).  Returns the snapshot plus the member list mapping compact
   ids back to live root ids, in ascending order. *)
let coarse_snapshot hy =
  let g = hy.g in
  let n = Array.length hy.alive in
  let map = Array.make n (-1) in
  let members = Array.make hy.n_alive 0 in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if hy.alive.(v) then begin
      map.(v) <- !next;
      members.(!next) <- v;
      incr next
    end
  done;
  let areas = Array.map (fun v -> g.Kpartition.areas.(v)) members in
  let nets = ref [] in
  for e = Array.length g.Kpartition.net_size - 1 downto 0 do
    let s = g.Kpartition.net_size.(e) in
    if s >= 2 then begin
      let pins = Array.init s (fun j -> map.(g.Kpartition.net_pins.(e).(j))) in
      nets := (pins, g.Kpartition.net_weight.(e)) :: !nets
    end
  done;
  (H.make ~areas ~nets:(Array.of_list !nets) (), members)

(* Multi-start initial k-way partition of the coarsest snapshot, projected
   onto the live roots.  Ties keep the earliest start.  [Multistart.best]
   runs the starts one after another (no pool), so they share [arena]. *)
let initial_partition ~tolerance arena rng hy side ~k =
  let snap, members = coarse_snapshot hy in
  let config = { Multiway.objective = Multiway.Net_cut; tolerance } in
  let r, _ =
    Multistart.best ~starts:initial_starts
      ~cut:(fun r -> r.Multiway.cut)
      (fun rng -> Multiway.run ~config ~arena rng snap ~k)
      rng
  in
  Array.iteri (fun i v -> side.(v) <- r.Multiway.side.(i)) members;
  members

(* The modules a greedy scan may move: a stamped set that grows as moves
   touch neighbours' gains. *)
type active = {
  items : int array;
  mutable len : int;
  mark : int array;
  mutable astamp : int;
}

let make_active n =
  { items = Array.make n 0; len = 0; mark = Array.make n 0; astamp = 0 }

let activate_vertex act v =
  if act.mark.(v) <> act.astamp then begin
    act.mark.(v) <- act.astamp;
    act.items.(act.len) <- v;
    act.len <- act.len + 1
  end

let reset_active act vs =
  act.astamp <- act.astamp + 1;
  act.len <- 0;
  Array.iter (activate_vertex act) vs

(* Greedy moves on cached gains: the best move of an active module to a
   part, over the directions [open_ p q] admits, that
   [Kpartition.move_is_feasible] allows and with a gain above [floor];
   ties go to the earlier active module, then the lower part.  Repeats
   until no move qualifies or [cap] moves are made, and every move
   activates the modules whose gains it touched.  Returns the move count. *)
let greedy cache act bounds ~floor ~open_ ~cap =
  let kp = Cache.partition cache in
  let k = Kpartition.k kp in
  let moves = ref 0 and continue = ref true in
  while !continue && !moves < cap do
    let best = ref (-1) and best_g = ref floor in
    for i = 0 to act.len - 1 do
      let v = act.items.(i) in
      let p = Kpartition.side kp v in
      for q = 0 to k - 1 do
        if open_ p q && Kpartition.move_is_feasible kp bounds v q then begin
          let g = Cache.gain cache v q in
          if g > !best_g then begin
            best_g := g;
            best := (v * k) + q
          end
        end
      done
    done;
    if !best < 0 then continue := false
    else begin
      Cache.move
        ~on_delta:(fun w _ _ -> activate_vertex act w)
        cache (!best / k) (!best mod k);
      incr moves
    end
  done;
  !moves

(* The coarsest partition was balanced against the snapshot's own slack
   (larger clusters, larger slack); pull the first overfull part back under
   the finest-level bound with its best moves before uncoarsening starts.
   Only the target's bound binds ([lo = 0] never does: no module outweighs
   its own part), since a cluster may be wider than the whole window. *)
let drain_coarse cache act members bounds =
  let kp = Cache.partition cache in
  let k = Kpartition.k kp in
  let rec first_over p =
    if p = k || Kpartition.excess bounds (Kpartition.area_of_part kp p) > 0
    then p
    else first_over (p + 1)
  in
  reset_active act members;
  ignore
    (greedy cache act
       { bounds with Kpartition.lo = 0 }
       ~floor:min_int
       ~open_:(fun p _ -> p = first_over 0)
       ~cap:(Array.length members * k))

(* Localized refinement around the just-restored pair: strictly
   positive-gain moves seeded at {u, v}.  The cut is monotone
   non-increasing, so the loop terminates; the cap bounds the worst case. *)
let local_refine cache act bounds u v =
  reset_active act [| u; v |];
  greedy cache act bounds ~floor:0
    ~open_:(fun _ _ -> true)
    ~cap:local_moves_cap

(* Full k-way FM polish at the finest level: Multiway's pass over the
   cached gains, which the cache's move keeps exact, so no pass recomputes
   a gain.  Neither the coarse drain nor the localized refinement promises
   the finest-level bounds: when the polish ends with a part outside them,
   the best moves out of overfull parts or into underfull ones (each within
   its budget, so it never pushes another part out) restore them, and a
   second polish follows.  Returns the passes' totals, whose [moves] count
   the repairs too. *)
let polish cache act arena rng h bounds =
  let kp = Cache.partition cache in
  let n = H.num_modules h and k = Kpartition.k kp in
  let pass () =
    Multiway.refine ~max_passes:polish_passes ~early_exit:(polish_streak n)
      ~max_gain:(Stdlib.max 1 (H.max_weighted_degree h))
      arena rng bounds kp
      {
        Multiway.gain = Cache.gain cache;
        move = (fun on_delta v q -> Cache.move ~on_delta cache v q);
        undo = Cache.restore cache;
      }
  in
  let first = pass () in
  let excess p = Kpartition.excess bounds (Kpartition.area_of_part kp p) in
  if Kpartition.is_balanced kp bounds then first
  else begin
    reset_active act (Array.init n Fun.id);
    let repairs =
      greedy cache act bounds ~floor:min_int
        ~open_:(fun p q -> excess p > 0 || excess q < 0)
        ~cap:(n * k)
    in
    let second = pass () in
    {
      Multiway.passes = first.passes + second.passes;
      moves = first.moves + repairs + second.moves;
      rolled_back = first.rolled_back + second.rolled_back;
    }
  end

let run ?(tolerance = 0.1) rng h ~k =
  if k < 2 then invalid_arg "Nlevel.run: k must be >= 2";
  let n = H.num_modules h in
  let hy = hierarchy_of h in
  let t0 = Trace.start () in
  coarsen hy rng h ~stop_at:(Stdlib.max threshold (2 * k));
  if Trace.enabled () then
    Trace.complete ~cat:"nlevel"
      ~args:
        [
          ("contractions", Trace.Int hy.contractions);
          ("coarse_modules", Trace.Int hy.n_alive);
        ]
      "nlevel/contract" t0;
  Metrics.add m_contractions hy.contractions;
  let side = Array.make n 0 in
  let arena = Multiway.create_arena () in
  let members = initial_partition ~tolerance arena rng hy side ~k in
  let kp = Kpartition.of_graph hy.g ~k ~members side in
  let cache = Cache.create kp in
  let bounds = Kpartition.bounds ~tolerance h ~k in
  let act = make_active n in
  drain_coarse cache act members bounds;
  let local_moves = ref 0 in
  let uncontractions = ref 0 in
  let t1 = Trace.start () in
  let rec replay () =
    match hy.trail with
    | [] -> ()
    | m :: rest ->
        hy.trail <- rest;
        uncontract ~cache hy m;
        incr uncontractions;
        local_moves := !local_moves + local_refine cache act bounds m.u m.v;
        replay ()
  in
  replay ();
  if Trace.enabled () then
    Trace.complete ~cat:"nlevel"
      ~args:
        [
          ("uncontractions", Trace.Int !uncontractions);
          ("local_moves", Trace.Int !local_moves);
        ]
      "nlevel/uncontract" t1;
  Metrics.add m_uncontractions !uncontractions;
  let t2 = Trace.start () in
  let polished = polish cache act arena rng h bounds in
  if Trace.enabled () then
    Trace.complete ~cat:"nlevel"
      ~args:
        [
          ("passes", Trace.Int polished.passes);
          ("moves", Trace.Int polished.moves);
          ("rolled_back", Trace.Int polished.rolled_back);
        ]
      "nlevel/refine" t2;
  Metrics.incr m_runs;
  Metrics.add m_moves (!local_moves + polished.moves);
  {
    side = Kpartition.side_array kp;
    cut = Kpartition.cut kp;
    contractions = hy.contractions;
    moves = !local_moves + polished.moves;
  }
