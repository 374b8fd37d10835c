module H = Mlpart_hypergraph.Hypergraph
module Rng = Mlpart_util.Rng
module Pool = Mlpart_util.Pool
module Metrics = Mlpart_obs.Metrics
module Trace = Mlpart_obs.Trace

let m_pairs = Metrics.counter "match.pairs"
let m_singletons = Metrics.counter "match.singletons"
let m_rounds = Metrics.counter "match.rounds"

let h_round_commits =
  Metrics.histogram "match.round_commits"
    ~buckets:[| 1; 4; 16; 64; 256; 1024; 4096 |]

(* Per-participant rating scratch: [conn] is a dense accumulator indexed by
   module id, [nbrs] collects the touched indices for O(degree) reset.
   Scratch contents never reach the output — which slot rates which module
   is scheduling-dependent, but ratings themselves are pure. *)
type scratch = { conn : float array; nbrs : int array }

(* One merge of sorted runs [lo, mid) and [mid, hi) of ([sk], [sr]) into
   ([dk], [dr]), by (key desc, rank asc). *)
let merge (sk : float array) (sr : int array) (dk : float array)
    (dr : int array) lo mid hi =
  let i = ref lo and j = ref mid and d = ref lo in
  while !i < mid && !j < hi do
    let ki = sk.(!i) and kj = sk.(!j) in
    if ki > kj || (ki = kj && sr.(!i) < sr.(!j)) then begin
      dk.(!d) <- ki;
      dr.(!d) <- sr.(!i);
      incr i
    end
    else begin
      dk.(!d) <- kj;
      dr.(!d) <- sr.(!j);
      incr j
    end;
    incr d
  done;
  Array.blit sk !i dk !d (mid - !i);
  Array.blit sr !i dr !d (mid - !i);
  let d = !d + mid - !i in
  Array.blit sk !j dk d (hi - !j);
  Array.blit sr !j dr d (hi - !j)

(* Sort the proposals [key.(0 .. len-1)] (ratings) with [rank] alongside by
   (rating desc, rank asc).  Ranks are distinct, so that order is strict
   and total: every correct sort yields the same array.  Insertion-sorted
   runs of 8, then bottom-up merge passes through [tkey]/[trank]. *)
let sort_proposals (key : float array) (rank : int array) (tkey : float array)
    (trank : int array) len =
  let run = 8 in
  let lo = ref 0 in
  while !lo < len do
    let hi = Stdlib.min len (!lo + run) in
    for i = !lo + 1 to hi - 1 do
      let k = key.(i) and r = rank.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && (k > key.(!j) || (k = key.(!j) && r < rank.(!j))) do
        key.(!j + 1) <- key.(!j);
        rank.(!j + 1) <- rank.(!j);
        decr j
      done;
      key.(!j + 1) <- k;
      rank.(!j + 1) <- r
    done;
    lo := hi
  done;
  let width = ref run and in_tmp = ref false in
  while !width < len do
    let w = !width in
    let sk, sr, dk, dr =
      if !in_tmp then (tkey, trank, key, rank) else (key, rank, tkey, trank)
    in
    let lo = ref 0 in
    while !lo < len do
      let mid = Stdlib.min len (!lo + w) in
      let hi = Stdlib.min len (!lo + (2 * w)) in
      merge sk sr dk dr !lo mid hi;
      lo := hi
    done;
    in_tmp := not !in_tmp;
    width := 2 * w
  done;
  if !in_tmp then begin
    Array.blit tkey 0 key 0 len;
    Array.blit trank 0 rank 0 len
  end

let run ?(max_net_size = 10) ?matchable ?pair_ok ?(max_cluster_area = max_int)
    ?pool rng h ~ratio =
  if not (ratio > 0.0 && ratio <= 1.0) then
    invalid_arg "Match.run: ratio outside (0, 1]";
  let n = H.num_modules h in
  let perm = Rng.permutation rng n in
  (* Rank in the seed permutation is the deterministic tie-break priority:
     it is independent of visit order (unlike the old sequential greedy
     loop) yet still varies with the seed, preserving multi-start
     diversity. *)
  let rank = Array.make n 0 in
  for i = 0 to n - 1 do
    rank.(perm.(i)) <- i
  done;
  let mate = Array.make n (-1) in
  let target = ratio *. float_of_int n in
  let n_match = ref 0 in
  let noff = H.net_offsets_store h
  and pins = H.net_pins_store h
  and wts = H.net_weights_store h
  and moff = H.mod_offsets_store h
  and mnets = H.mod_nets_store h
  and areas = H.areas_store h in
  let slots = match pool with Some p -> Pool.size p | None -> 1 in
  let scratch =
    Array.init slots (fun _ -> { conn = Array.make n 0.0; nbrs = Array.make n 0 })
  in
  let prop = Array.make n (-1) in
  let rate = Array.make n 0.0 in
  (* Highest-rated feasible unmatched partner of [v], ties to lowest rank,
     written to [prop.(v)] and [rate.(v)].  Reads only round-start state
     ([mate] is frozen during rating).  The float expression and the
     summation order (nets in incidence order, pins in net order) fix
     every rating bit for bit, and with it every answer.  [matchable] and
     [pair_ok] are called only when given. *)
  let rate_module s v =
    let conn = s.conn and nbrs = s.nbrs in
    let n_nbrs = ref 0 in
    let av = areas.(v) in
    let inv_av = 1.0 /. float_of_int av in
    for i = moff.(v) to moff.(v + 1) - 1 do
      let e = mnets.(i) in
      let off = noff.(e) and stop = noff.(e + 1) in
      let size = stop - off in
      if size <= max_net_size then begin
        let contribution = float_of_int wts.(e) /. float_of_int (size - 1) in
        for j = off to stop - 1 do
          let w = pins.(j) in
          if
            w <> v
            && mate.(w) < 0
            && (match matchable with None -> true | Some f -> f w)
            && (match pair_ok with None -> true | Some f -> f v w)
            && av + areas.(w) <= max_cluster_area
          then begin
            if conn.(w) = 0.0 then begin
              nbrs.(!n_nbrs) <- w;
              incr n_nbrs
            end;
            conn.(w) <-
              conn.(w) +. (contribution *. inv_av /. float_of_int areas.(w))
          end
        done
      end
    done;
    let best = ref (-1) in
    let best_conn = ref 0.0 in
    for i = 0 to !n_nbrs - 1 do
      let w = nbrs.(i) in
      let c = conn.(w) in
      if c > !best_conn || (c = !best_conn && !best >= 0 && rank.(w) < rank.(!best))
      then begin
        best_conn := c;
        best := w
      end;
      conn.(w) <- 0.0
    done;
    prop.(v) <- !best;
    rate.(v) <- !best_conn
  in
  (* Active set, in ascending module order: matchable modules that still
     had a feasible partner last round.  A module whose rating comes back
     empty is dropped for good — the unmatched set only shrinks, so no
     partner can appear later. *)
  let act = Array.make n 0 in
  let n_act = ref 0 in
  for v = 0 to n - 1 do
    if match matchable with None -> true | Some f -> f v then begin
      act.(!n_act) <- v;
      incr n_act
    end
  done;
  (* Proposals of a round: ratings with the proposer's rank alongside. *)
  let ckey = Array.make n 0.0 and crank = Array.make n 0 in
  (* Rating pass: embarrassingly parallel over disjoint ranges of the
     active array against the frozen round-start [mate]. *)
  let rate_range ~slot ~lo ~hi =
    let s = scratch.(slot) in
    for i = lo to hi - 1 do
      rate_module s act.(i)
    done
  in
  let round = ref 0 in
  let continue = ref (float_of_int !n_match < target && !n_act > 0) in
  while !continue do
    incr round;
    let t0 = Trace.start () in
    let n_rated = !n_act in
    (match pool with
    | Some p when n_rated > 1 ->
        Pool.parallel_chunks p ~n:n_rated ~body:rate_range
    | _ -> rate_range ~slot:0 ~lo:0 ~hi:n_rated);
    (* Deterministic commit: proposers sorted by (rating desc, rank asc) —
       a total order independent of visit order and pool size — then the
       feasible prefix is committed sequentially.  The first candidate
       always commits (both endpoints are free at round start), so every
       round with a proposal makes progress. *)
    let n_cand = ref 0 in
    for i = 0 to n_rated - 1 do
      let v = act.(i) in
      if prop.(v) >= 0 then begin
        ckey.(!n_cand) <- rate.(v);
        crank.(!n_cand) <- rank.(v);
        incr n_cand
      end
    done;
    (* The merge passes borrow slot 0's rating scratch, idle between
       rating passes; its accumulator is zeroed again after. *)
    let s0 = scratch.(0) in
    sort_proposals ckey crank s0.conn s0.nbrs !n_cand;
    Array.fill s0.conn 0 !n_cand 0.0;
    let commits = ref 0 in
    let i = ref 0 in
    while !i < !n_cand && float_of_int !n_match < target do
      let v = perm.(crank.(!i)) in
      if mate.(v) < 0 then begin
        let w = prop.(v) in
        if mate.(w) < 0 then begin
          mate.(v) <- w;
          mate.(w) <- v;
          n_match := !n_match + 2;
          incr commits
        end
      end;
      incr i
    done;
    Metrics.add m_rounds 1;
    Metrics.observe h_round_commits !commits;
    if Trace.enabled () then
      Trace.complete ~cat:"coarsen"
        ~args:
          [
            ("round", Trace.Int !round);
            ("active", Trace.Int n_rated);
            ("committed", Trace.Int !commits);
          ]
        "coarsen/round" t0;
    (* Compact the active set in place, keeping its order. *)
    let kept = ref 0 in
    for i = 0 to n_rated - 1 do
      let v = act.(i) in
      if mate.(v) < 0 && prop.(v) >= 0 then begin
        act.(!kept) <- v;
        incr kept
      end
    done;
    n_act := !kept;
    continue := !commits > 0 && float_of_int !n_match < target && !n_act > 0
  done;
  (* Cluster ids in permutation order, matched pairs sharing an id. *)
  let cluster_of = Array.make n (-1) in
  let k = ref 0 in
  for j = 0 to n - 1 do
    let v = perm.(j) in
    if cluster_of.(v) < 0 then begin
      let c = !k in
      incr k;
      cluster_of.(v) <- c;
      let w = mate.(v) in
      if w >= 0 then cluster_of.(w) <- c
    end
  done;
  Metrics.add m_pairs (!n_match / 2);
  Metrics.add m_singletons (!k - (!n_match / 2));
  (cluster_of, !k)
