module H = Mlpart_hypergraph.Hypergraph
module Rng = Mlpart_util.Rng
module Heapsort = Mlpart_util.Heapsort
module Trace = Mlpart_obs.Trace
module Metrics = Mlpart_obs.Metrics

(* Per-pass engine telemetry.  Handles are created once here; every
   recording call below is gated on the metrics/trace flag, so a run with
   observability off pays one predictable branch per move (the gain
   histogram) and a handful per pass. *)
let m_runs = Metrics.counter "fm.runs"
let m_passes = Metrics.counter "fm.passes"
let m_moves = Metrics.counter "fm.moves"
let m_backtracks = Metrics.counter "fm.backtracks"

let h_move_gain =
  (* signed: the negative buckets are the tolerated downhill moves, the
     positive ones the recovered gains *)
  Metrics.histogram "fm.move_gain"
    ~buckets:[| -64; -16; -4; -2; -1; 0; 1; 2; 4; 16; 64 |]

let h_rollback =
  Metrics.histogram "fm.rollback_depth"
    ~buckets:[| 0; 1; 2; 4; 8; 16; 32; 64; 128; 256; 1024 |]

let h_passes_per_run =
  Metrics.histogram "fm.passes_per_run" ~buckets:[| 1; 2; 3; 4; 6; 8; 12; 16 |]

type tie_break = Plain | Lookahead of int

type config = {
  policy : Gain_bucket.policy;
  clip : bool;
  tie_break : tie_break;
  net_threshold : int;
  tolerance : float;
  wide_balance : bool;
  max_passes : int;
  early_exit : int option;
  boundary : bool;
  backtrack : (int * int) option;
}

let default =
  {
    policy = Gain_bucket.Lifo;
    clip = false;
    tie_break = Plain;
    net_threshold = Refine_core.net_threshold;
    tolerance = 0.1;
    wide_balance = false;
    max_passes = max_int;
    early_exit = None;
    boundary = false;
    backtrack = None;
  }

let clip = { default with clip = true }

type result = { side : int array; cut : int; passes : int; moves : int }

let cut_of h side = Bipartition.cut (Bipartition.create h side)

(* Reusable engine scratch, independent of any particular run: every array a
   run needs, sized to the largest netlist seen so far, plus the two gain
   buckets (reconfigured per run via [Gain_bucket.reinit]).  A multilevel
   refinement sweep threads one arena through every level so per-level
   engine state is allocated once, at the finest level's size, instead of
   once per level.  Not safe to share between domains.  [ids] is kept at the
   exact module count (whole-array shuffle/sort), the rest grow-only.
   [bnd]/[bnd_epoch] are the epoch-stamped boundary-frontier marks. *)
type arena = {
  mutable gain : int array;
  mutable gain0 : int array;
  mutable locked : bool array;
  mutable frozen : bool array;
  mutable free_on : int array;
  mutable order : int array;
  mutable ids : int array;
  mutable bnd : int array;
  mutable bnd_epoch : int;
  buckets : Gain_bucket.t array; (* one per side *)
}

let create_arena ?h () =
  let n, m =
    match h with Some h -> (H.num_modules h, H.num_nets h) | None -> (0, 0)
  in
  let mk_bucket () =
    Gain_bucket.create ~policy:Gain_bucket.Lifo ~min_gain:0 ~max_gain:0
      ~capacity:n ()
  in
  {
    gain = Array.make n 0;
    gain0 = Array.make n 0;
    locked = Array.make n false;
    frozen = Array.make n false;
    free_on = Array.make (2 * m) 0;
    order = Array.make n 0;
    ids = Array.make n 0;
    bnd = Array.make n 0;
    bnd_epoch = 0;
    buckets = [| mk_bucket (); mk_bucket () |];
  }

let ensure_arena a n m =
  if Array.length a.gain < n then begin
    a.gain <- Array.make n 0;
    a.gain0 <- Array.make n 0;
    a.locked <- Array.make n false;
    a.frozen <- Array.make n false;
    a.order <- Array.make n 0;
    a.bnd <- Array.make n 0;
    a.bnd_epoch <- 0
  end;
  if Array.length a.ids <> n then a.ids <- Array.make n 0;
  if Array.length a.free_on < 2 * m then a.free_on <- Array.make (2 * m) 0

(* Per-run engine state.  [gain] holds true gains of free modules; under
   CLIP the bucket key of a module is [gain - gain0] (its offset from the
   pass-initial gain), otherwise the gain itself.  [free_on.(2e+s)] counts
   unlocked pins of net e on side s, used by lookahead gain vectors.  All
   array fields alias the arena; they may be longer than the run needs. *)
type state = {
  cfg : config;
  h : H.t;
  bp : Bipartition.t;
  bounds : Bipartition.bounds;
  fixed : int array option;
  rng : Rng.t;
  a : arena;
  gain : int array;
  gain0 : int array;
  locked : bool array;
  frozen : bool array; (* CDIP: kept out for the rest of the pass *)
  free_on : int array;
  buckets : Gain_bucket.t array; (* one per side *)
  order : int array; (* move stack *)
  lookahead_vec : int array; (* scratch for vector comparison *)
  (* Raw views for the move loop: the live side / pin-count stores of [bp]
     and the hypergraph CSR arrays, so gain updates are pure array
     arithmetic with no per-element calls.  Read-only except [free_on]. *)
  side : int array;
  pins_on : int array;
  noff : int array; (* net -> first pin slot, length m+1 *)
  pins : int array; (* module per pin slot *)
  moff : int array; (* module -> first net slot, length n+1 *)
  mnets : int array; (* net per module-incidence slot *)
  wts : int array; (* weight per net *)
  areas : int array; (* live side areas of [bp] *)
  feas : int -> bool; (* balance feasibility of moving a module *)
  min_area : int; (* smallest and largest module area of [h] *)
  max_area : int;
  id_shift : int; (* low bits holding a module id under a packed CLIP key *)
}

let key_of st v = if st.cfg.clip then st.gain.(v) - st.gain0.(v) else st.gain.(v)

let bump st u delta =
  st.gain.(u) <- st.gain.(u) + delta;
  let bucket = st.buckets.(st.side.(u)) in
  if Gain_bucket.contains bucket u then Gain_bucket.adjust bucket u delta
  else
    (* boundary mode: a module outside the frontier enters the structure
       the first time a neighbouring move touches its gain *)
    Gain_bucket.insert bucket u (key_of st u)

(* FM critical-net gain updates around moving [v]; [v] must already be
   locked and removed from its bucket, the partition not yet updated.
   Both sweeps walk the CSR directly: nets of [v] by incidence slot, pins
   of each critical net by pin slot.  The partition's per-net count update
   is fused into the first sweep (each net's counts are only read in its
   own iteration, so pre-move values are still what the gain terms see),
   and the side/area flip sits between the sweeps via
   [Bipartition.stage_move] — the bipartition's incremental cut is left
   stale during passes and recomputed once per run. *)
let apply_move st v =
  let thr = st.cfg.net_threshold in
  let from = st.side.(v) in
  let dest = 1 - from in
  let noff = st.noff
  and pins = st.pins
  and mnets = st.mnets
  and wts = st.wts
  and pins_on = st.pins_on
  and locked = st.locked
  and side = st.side in
  let lo = st.moff.(v) and hi = st.moff.(v + 1) - 1 in
  for i = lo to hi do
    let e = mnets.(i) in
    let off = noff.(e) in
    let last = noff.(e + 1) - 1 in
    let fi = (2 * e) + from and di = (2 * e) + dest in
    if last - off < thr then begin
      let t_cnt = pins_on.(di) in
      if t_cnt = 0 then begin
        let w = wts.(e) in
        for j = off to last do
          let u = pins.(j) in
          if not locked.(u) then bump st u w
        done
      end
      else if t_cnt = 1 then begin
        let w = wts.(e) in
        for j = off to last do
          let u = pins.(j) in
          if side.(u) = dest && not locked.(u) then bump st u (-w)
        done
      end
    end;
    pins_on.(fi) <- pins_on.(fi) - 1;
    pins_on.(di) <- pins_on.(di) + 1
  done;
  Bipartition.stage_move st.bp v;
  for i = lo to hi do
    let e = mnets.(i) in
    st.free_on.((2 * e) + from) <- st.free_on.((2 * e) + from) - 1;
    let off = noff.(e) in
    let last = noff.(e + 1) - 1 in
    if last - off < thr then begin
      let f_cnt = pins_on.((2 * e) + from) in
      if f_cnt = 0 then begin
        let w = wts.(e) in
        for j = off to last do
          let u = pins.(j) in
          if not locked.(u) then bump st u (-w)
        done
      end
      else if f_cnt = 1 then begin
        let w = wts.(e) in
        for j = off to last do
          let u = pins.(j) in
          if side.(u) = from && not locked.(u) then bump st u w
        done
      end
    end
  done

(* Undo a move made by [apply_move]: partition state only — gains and
   buckets are rebuilt wholesale afterwards (paper §V notes full
   reinitialisation per pass; CDIP backtracks rebuild too).  Same fused
   count maintenance as [apply_move]. *)
let unmove st v =
  let from = st.side.(v) in
  let dest = 1 - from in
  let pins_on = st.pins_on in
  Bipartition.stage_move st.bp v;
  for i = st.moff.(v) to st.moff.(v + 1) - 1 do
    let e = st.mnets.(i) in
    let fi = (2 * e) + from and di = (2 * e) + dest in
    pins_on.(fi) <- pins_on.(fi) - 1;
    pins_on.(di) <- pins_on.(di) + 1;
    st.free_on.((2 * e) + from) <- st.free_on.((2 * e) + from) + 1
  done

(* Krishnamurthy level-r gain vector of a free module, in one sweep over its
   nets.  Binding number of a side is infinite when a locked pin sits there
   (the net can never leave that side); otherwise the count of free pins. *)
let gain_vector st v r vec =
  Array.fill vec 0 r 0;
  let thr = st.cfg.net_threshold in
  let a = st.side.(v) in
  let b = 1 - a in
  let noff = st.noff and mnets = st.mnets and wts = st.wts in
  for i = st.moff.(v) to st.moff.(v + 1) - 1 do
    let e = mnets.(i) in
    if noff.(e + 1) - noff.(e) <= thr then begin
      let w = wts.(e) in
      let free_a = st.free_on.((2 * e) + a)
      and free_b = st.free_on.((2 * e) + b) in
      let locked_a = st.pins_on.((2 * e) + a) - free_a
      and locked_b = st.pins_on.((2 * e) + b) - free_b in
      if locked_a = 0 && free_a - 1 < r then
        vec.(free_a - 1) <- vec.(free_a - 1) + w;
      if locked_b = 0 && free_b < r then vec.(free_b) <- vec.(free_b) - w
    end
  done

let compare_vectors a b r =
  let rec go i =
    if i >= r then 0
    else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
    else go (i + 1)
  in
  go 0

(* Best feasible module of side [s]'s bucket, or -1.  When the balance
   window of side [s] holds no module area of the netlist, the walk could
   only reject every module: it is skipped in O(1), unless the bucket
   draws from its generator while walking (Random), where skipping would
   shift the seeded stream. *)
let best_on_side st s =
  let b = st.buckets.(s) in
  if
    Bipartition.direction_open st.bp st.bounds s ~min_area:st.min_area
      ~max_area:st.max_area
    || Gain_bucket.draws_on_select b
  then Gain_bucket.select_satisfying b st.feas
  else -1

(* Candidate selection; returns the module to move, or -1 when no feasible
   candidate remains.  Both sides' best feasible keys are compared; key ties
   go to the heavier side (helps balance).  Under lookahead, all feasible
   candidates sharing the winning key (bounded scan) are compared by gain
   vector.  [st.feas] is the one per-run feasibility closure; the whole
   path allocates nothing on the plain tie-break. *)
let select st =
  let b0 = st.buckets.(0) and b1 = st.buckets.(1) in
  let v0 = best_on_side st 0 in
  let v1 = best_on_side st 1 in
  let v, key =
    if v0 < 0 then (v1, if v1 < 0 then 0 else Gain_bucket.gain_of b1 v1)
    else if v1 < 0 then (v0, Gain_bucket.gain_of b0 v0)
    else begin
      let g0 = Gain_bucket.gain_of b0 v0 and g1 = Gain_bucket.gain_of b1 v1 in
      if g0 > g1 then (v0, g0)
      else if g1 > g0 then (v1, g1)
      else if st.areas.(0) >= st.areas.(1) then (v0, g0)
      else (v1, g1)
    end
  in
  match st.cfg.tie_break with
  | Plain -> v
  | Lookahead _ when v < 0 -> v
  | Lookahead r ->
      let limit = ref 64 in
      let best = ref v in
      let best_vec = Array.make r 0 in
      let vec = st.lookahead_vec in
      gain_vector st v r best_vec;
      let consider u =
        if u <> !best && !limit > 0 && st.feas u then begin
          decr limit;
          gain_vector st u r vec;
          if compare_vectors vec best_vec r > 0 then begin
            best := u;
            Array.blit vec 0 best_vec 0 r
          end
        end
      in
      (* Candidates at the winning key can sit on either side: a side whose
         best feasible key is lower contributes none. *)
      for s = 0 to 1 do
        match Gain_bucket.max_key st.buckets.(s) with
        | Some mk when mk >= key -> Gain_bucket.iter_key st.buckets.(s) key consider
        | Some _ | None -> ()
      done;
      !best

(* (Re)build gains, free-pin counts and buckets for the current free set, in
   one net-centric sweep over the pin structure: each net contributes its
   per-side free-pin counts and — when within the size threshold — the
   critical-net gain terms of every free pin (pins_on = 1 on the pin's own
   side, pins_on = 0 opposite).  Locked modules keep whatever gain value
   they last had: the CLIP preprocessing sort below keys on the whole gain
   array, so touching locked entries would reorder equal-key free modules
   under the unstable sort and change results.

   Under CLIP, all modules enter at key [gain - gain0]; at pass start that
   is 0 for everyone and the insertion order realises the paper's
   "concatenate buckets from the largest index" preprocessing: for LIFO
   (head selection) ascending initial gain leaves the highest at the head,
   for FIFO descending does. *)
let fill_structures st ~fresh_pass =
  let n = H.num_modules st.h in
  let m = H.num_nets st.h in
  let thr = st.cfg.net_threshold in
  let side = st.side
  and pins_on = st.pins_on
  and noff = st.noff
  and pins = st.pins
  and wts = st.wts
  and gain = st.gain
  and free_on = st.free_on
  and locked = st.locked in
  for v = 0 to n - 1 do
    if not locked.(v) then gain.(v) <- 0
  done;
  for e = 0 to m - 1 do
    let base = 2 * e in
    let off = noff.(e) in
    let last = noff.(e + 1) - 1 in
    let free0 = ref 0 and free1 = ref 0 in
    if last - off < thr then begin
      let w = wts.(e) in
      let c0 = pins_on.(base) and c1 = pins_on.(base + 1) in
      for i = off to last do
        let u = pins.(i) in
        if not locked.(u) then
          if side.(u) = 0 then begin
            incr free0;
            if c0 = 1 then gain.(u) <- gain.(u) + w;
            if c1 = 0 then gain.(u) <- gain.(u) - w
          end
          else begin
            incr free1;
            if c1 = 1 then gain.(u) <- gain.(u) + w;
            if c0 = 0 then gain.(u) <- gain.(u) - w
          end
      done
    end
    else
      (* oversized nets are invisible to gains but still carry free-pin
         counts for the lookahead binding numbers *)
      for i = off to last do
        let u = pins.(i) in
        if not locked.(u) then
          if side.(u) = 0 then incr free0 else incr free1
      done;
    free_on.(base) <- !free0;
    free_on.(base + 1) <- !free1
  done;
  if st.cfg.clip && fresh_pass then Array.blit gain 0 st.gain0 0 n;
  Gain_bucket.clear st.buckets.(0);
  Gain_bucket.clear st.buckets.(1);
  let ids = st.a.ids in
  if st.cfg.clip then begin
    (* Sort by initial gain so that bucket-0 ends up ordered by descending
       initial gain under the selection policy: ascending for LIFO and
       Random, descending (the negated gain ascending) for FIFO.  Each id
       carries its key in the bits above it, and [Heapsort] replays
       [Array.sort]'s heapsort on the keys alone, so ties land where
       [Array.sort (fun a b -> Int.compare gain.(a) gain.(b))] put them,
       without a closure call or a [gain] load per comparison (measured
       2x to 4x faster than that [Array.sort] for n = 801 to 12,637). *)
    let shift = st.id_shift in
    (match st.cfg.policy with
    | Gain_bucket.Fifo ->
        for v = 0 to n - 1 do
          ids.(v) <- ((-gain.(v)) lsl shift) lor v
        done
    | Gain_bucket.Lifo | Gain_bucket.Random ->
        for v = 0 to n - 1 do
          ids.(v) <- (gain.(v) lsl shift) lor v
        done);
    Heapsort.sort ~shift ~len:n ids;
    let mask = (1 lsl shift) - 1 in
    for i = 0 to n - 1 do
      ids.(i) <- ids.(i) land mask
    done
  end
  else begin
    for v = 0 to n - 1 do
      ids.(v) <- v
    done;
    Rng.shuffle_in_place st.rng ids
  end;
  (* Boundary frontier by cut-net marking: every pin of every cut net is on
     the frontier, found in one sweep over the cut nets' pins instead of a
     nets-of-module scan per module. *)
  let boundary = st.cfg.boundary in
  if boundary then begin
    let stamp = st.a.bnd_epoch + 1 in
    st.a.bnd_epoch <- stamp;
    let bnd = st.a.bnd in
    for e = 0 to m - 1 do
      if pins_on.(2 * e) > 0 && pins_on.((2 * e) + 1) > 0 then
        for i = noff.(e) to noff.(e + 1) - 1 do
          bnd.(pins.(i)) <- stamp
        done
    done
  end;
  let bnd = st.a.bnd and stamp = st.a.bnd_epoch in
  Array.iter
    (fun v ->
      if (not locked.(v)) && ((not boundary) || bnd.(v) = stamp) then
        Gain_bucket.insert st.buckets.(side.(v)) v (key_of st v))
    ids

(* Fixed modules behave as permanently locked: never inserted, never
   moved, invisible to free-pin counts. *)
let apply_fixed_locks st =
  match st.fixed with
  | None -> ()
  | Some f -> Array.iteri (fun v p -> if p >= 0 then st.locked.(v) <- true) f

(* One FM pass via the shared move loop; returns the pass result.  The
   closures hand [Refine_core] exactly the operations the loop needs:
   commit removes from the bucket, locks, applies and credits the stored
   gain; rebuild is the CDIP streak recovery (freeze the streak's first
   module, re-lock the kept prefix, re-derive gains and buckets). *)
let run_pass st =
  let n = H.num_modules st.h in
  Array.fill st.locked 0 n false;
  Array.fill st.frozen 0 n false;
  apply_fixed_locks st;
  fill_structures st ~fresh_pass:true;
  let ops =
    {
      Refine_core.select = (fun () -> select st);
      commit =
        (fun v ->
          Gain_bucket.remove st.buckets.(st.side.(v)) v;
          st.locked.(v) <- true;
          let g = st.gain.(v) in
          apply_move st v;
          Metrics.observe h_move_gain g;
          g);
      undo =
        (fun ~lo ~hi ->
          for i = hi - 1 downto lo do
            unmove st st.order.(i)
          done);
      rebuild =
        (fun ~first_bad ~kept ->
          Metrics.incr m_backtracks;
          st.frozen.(first_bad) <- true;
          Array.fill st.locked 0 n false;
          apply_fixed_locks st;
          for i = 0 to kept - 1 do
            st.locked.(st.order.(i)) <- true
          done;
          for v = 0 to n - 1 do
            if st.frozen.(v) then st.locked.(v) <- true
          done;
          fill_structures st ~fresh_pass:false);
    }
  in
  let p =
    Refine_core.run_pass ~order:st.order ?early_exit:st.cfg.early_exit
      ?backtrack:st.cfg.backtrack ops
  in
  Metrics.observe h_rollback p.Refine_core.rolled_back;
  p

let refine ?(config = default) ?fixed ?arena rng bp =
  let h = Bipartition.hypergraph bp in
  let bounds =
    if config.wide_balance then Bipartition.wide_bounds ~tolerance:config.tolerance h
    else Bipartition.bounds ~tolerance:config.tolerance h
  in
  (* Pinned modules override whatever the initial solution said. *)
  (match fixed with
  | Some f ->
      Array.iteri
        (fun v p ->
          if p >= 0 && Bipartition.side bp v <> p then Bipartition.move bp v)
        f
  | None -> ());
  if not (Bipartition.is_balanced bp bounds) then
    ignore (Bipartition.rebalance ?fixed rng bp bounds);
  let n = H.num_modules h in
  let m = H.num_nets h in
  let wdeg = Stdlib.max 1 (H.max_weighted_degree h) in
  let range = if config.clip then 2 * wdeg else wdeg in
  (* every gain lies in [-wdeg, wdeg], so the CLIP sort keys pack *)
  let id_shift = Heapsort.shift_for n in
  if config.clip && not (Heapsort.fits ~shift:id_shift wdeg) then
    invalid_arg "Fm.refine: gains too large to pack above module ids";
  let a = match arena with Some a -> a | None -> create_arena () in
  ensure_arena a n m;
  (* A fresh run starts from all-zero gains, exactly as the former per-run
     [Array.make n 0] did: modules locked for the whole run (fixed) keep
     gain 0 at every pass, which the CLIP sort observes. *)
  Array.fill a.gain 0 n 0;
  (* Two generator splits per run, bucket 1's first: the order the original
     [| mk_bucket (); mk_bucket () |] literal evaluated them (right to
     left), so seeded Random-policy streams are unchanged. *)
  let rng_b1 = Rng.split rng in
  let rng_b0 = Rng.split rng in
  Gain_bucket.reinit ~rng:rng_b0 ~policy:config.policy ~min_gain:(-range)
    ~max_gain:range ~capacity:n a.buckets.(0);
  Gain_bucket.reinit ~rng:rng_b1 ~policy:config.policy ~min_gain:(-range)
    ~max_gain:range ~capacity:n a.buckets.(1);
  let st =
    {
      cfg = config;
      h;
      bp;
      bounds;
      fixed;
      rng;
      a;
      gain = a.gain;
      gain0 = a.gain0;
      locked = a.locked;
      frozen = a.frozen;
      free_on = a.free_on;
      buckets = a.buckets;
      order = a.order;
      lookahead_vec =
        (match config.tie_break with
        | Plain -> [| 0 |]
        | Lookahead r -> Array.make (Stdlib.max 1 r) 0);
      side = Bipartition.side_store bp;
      pins_on = Bipartition.pins_on_store bp;
      noff = H.net_offsets_store h;
      pins = H.net_pins_store h;
      moff = H.mod_offsets_store h;
      mnets = H.mod_nets_store h;
      wts = H.net_weights_store h;
      areas = Bipartition.areas_store bp;
      feas = (fun v -> Bipartition.move_is_feasible bp bounds v);
      min_area = H.min_area h;
      max_area = H.max_area h;
      id_shift;
    }
  in
  let passes, moves =
    Refine_core.drive ~max_passes:config.max_passes (fun ~pass ->
        let t0 = Trace.start () in
        let p = run_pass st in
        if Trace.enabled () then
          Trace.complete ~cat:"fm"
            ~args:
              [
                ("pass", Trace.Int pass);
                ("gain", Trace.Int p.Refine_core.gain);
                ("moves", Trace.Int p.Refine_core.moves);
                ("modules", Trace.Int n);
              ]
            "fm/pass" t0;
        p)
  in
  Metrics.incr m_runs;
  Metrics.add m_passes passes;
  Metrics.add m_moves moves;
  Metrics.observe h_passes_per_run passes;
  {
    side = Bipartition.side_array st.bp;
    (* Passes maintain pin counts but stage side flips without touching the
       bipartition's incremental cut; one CSR sweep restores it exactly. *)
    cut = Bipartition.recompute_cut st.bp;
    passes;
    moves;
  }

let run ?config ?init ?fixed ?arena rng h =
  let bp =
    match init with
    | Some side -> Bipartition.create h side
    | None -> Bipartition.random rng h
  in
  refine ?config ?fixed ?arena rng bp
