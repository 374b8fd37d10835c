(* Tests for the shared partition state (Bipartition, Kpartition) and the
   gain-bucket structure. *)

module H = Mlpart_hypergraph.Hypergraph
module Bp = Mlpart_partition.Bipartition
module Kp = Mlpart_partition.Kpartition
module Gb = Mlpart_partition.Gain_bucket
module Rng = Mlpart_util.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let sample () =
  H.make ~name:"sample"
    ~areas:[| 1; 2; 3; 4; 5 |]
    ~nets:[| ([| 0; 1 |], 1); ([| 1; 2; 3 |], 2); ([| 0; 3; 4 |], 1) |]
    ()

let random_instance seed =
  let rng = Rng.create seed in
  Mlpart_gen.Generate.rent ~rng ~modules:80 ~nets:100 ~pins:300 ()

(* ---- Bipartition ---- *)

let test_bp_cut () =
  let h = sample () in
  let bp = Bp.create h [| 0; 0; 1; 1; 1 |] in
  (* net0 inside X, net1 cut (w=2), net2 cut (w=1) *)
  check Alcotest.int "cut" 3 (Bp.cut bp);
  check Alcotest.int "recomputed" 3 (Bp.recompute_cut bp);
  check Alcotest.int "area X" 3 (Bp.area_of_side bp 0);
  check Alcotest.int "area Y" 12 (Bp.area_of_side bp 1)

let test_bp_pins_on () =
  let h = sample () in
  let bp = Bp.create h [| 0; 0; 1; 1; 1 |] in
  check Alcotest.int "net1 on X" 1 (Bp.pins_on bp 1 0);
  check Alcotest.int "net1 on Y" 2 (Bp.pins_on bp 1 1)

let test_bp_move_updates () =
  let h = sample () in
  let bp = Bp.create h [| 0; 0; 1; 1; 1 |] in
  Bp.move bp 1;
  (* module 1 to side 1: net0 becomes cut, net1 becomes internal to Y *)
  check Alcotest.int "cut after move" 2 (Bp.cut bp);
  check Alcotest.int "area X" 1 (Bp.area_of_side bp 0);
  check Alcotest.int "side updated" 1 (Bp.side bp 1);
  Bp.move bp 1;
  check Alcotest.int "move is self-inverse" 3 (Bp.cut bp)

let test_bp_gain_matches_move () =
  let h = sample () in
  let bp = Bp.create h [| 0; 0; 1; 1; 1 |] in
  for v = 0 to 4 do
    let g = Bp.gain bp v in
    let before = Bp.cut bp in
    Bp.move bp v;
    check Alcotest.int
      (Printf.sprintf "gain of %d equals cut delta" v)
      g (before - Bp.cut bp);
    Bp.move bp v
  done

let test_bp_gain_threshold () =
  let h = sample () in
  let bp = Bp.create h [| 0; 0; 1; 1; 1 |] in
  (* with a threshold of 2, only the 2-pin net {0,1} contributes: moving 1
     to Y cuts it, so the gain is -1; the 3-pin net is invisible *)
  let g = Bp.gain ~net_threshold:2 bp 1 in
  check Alcotest.int "only small nets counted" (-1) g;
  (* without the threshold the 3-pin net adds +2 (it becomes uncut) *)
  check Alcotest.int "full gain" 1 (Bp.gain bp 1)

let test_bp_create_rejects_bad_side () =
  let h = sample () in
  (match Bp.create h [| 0; 0; 2; 1; 1 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let test_bp_bounds () =
  let h = sample () in
  (* total 15, max area 5, r = 0.1: slack = max(5, 0) = 5 *)
  let b = Bp.bounds h in
  check Alcotest.bool "lo" true (b.Bp.lo <= 7 - 5 + 1);
  check Alcotest.bool "hi" true (b.Bp.hi >= 7 + 5);
  let wide = Bp.wide_bounds h in
  check Alcotest.bool "wide at least as permissive" true
    (wide.Bp.lo <= b.Bp.lo && wide.Bp.hi >= b.Bp.hi)

let test_bp_random_balanced () =
  let h = random_instance 3 in
  let rng = Rng.create 1 in
  let bp = Bp.random rng h in
  let b = Bp.bounds h in
  check Alcotest.bool "random start balanced" true (Bp.is_balanced bp b)

let test_bp_rebalance () =
  let h = random_instance 4 in
  let n = H.num_modules h in
  (* grossly unbalanced start: everything on side 0 *)
  let bp = Bp.create h (Array.make n 0) in
  let b = Bp.bounds h in
  check Alcotest.bool "unbalanced" false (Bp.is_balanced bp b);
  let moves = Bp.rebalance (Rng.create 2) bp b in
  check Alcotest.bool "rebalanced" true (Bp.is_balanced bp b);
  check Alcotest.bool "made moves" true (moves > 0);
  check Alcotest.int "cut still consistent" (Bp.recompute_cut bp) (Bp.cut bp)

let prop_bp_incremental_cut =
  QCheck.Test.make ~name:"cut stays consistent under random move sequences"
    ~count:60
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 60) small_int))
    (fun (seed, moves) ->
      let h = random_instance seed in
      let rng = Rng.create (seed + 1) in
      let bp = Bp.random rng h in
      List.iter (fun m -> Bp.move bp (m mod H.num_modules h)) moves;
      Bp.cut bp = Bp.recompute_cut bp)

let prop_bp_gain_is_cut_delta =
  QCheck.Test.make ~name:"gain equals cut delta for any module" ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, which) ->
      let h = random_instance seed in
      let bp = Bp.random (Rng.create (seed + 9)) h in
      let v = which mod H.num_modules h in
      let g = Bp.gain bp v in
      let before = Bp.cut bp in
      Bp.move bp v;
      g = before - Bp.cut bp)

(* ---- Gain buckets ---- *)

let mk policy = Gb.create ~policy ~min_gain:(-5) ~max_gain:5 ~capacity:16 ()

let test_gb_basic () =
  let t = mk Gb.Lifo in
  check Alcotest.bool "empty" true (Gb.is_empty t);
  Gb.insert t 3 2;
  Gb.insert t 4 (-1);
  check Alcotest.int "size" 2 (Gb.size t);
  check Alcotest.bool "contains" true (Gb.contains t 3);
  check Alcotest.int "gain_of" 2 (Gb.gain_of t 3);
  (match Gb.select_max t with
  | Some (v, g) ->
      check Alcotest.int "max module" 3 v;
      check Alcotest.int "max gain" 2 g
  | None -> Alcotest.fail "expected max");
  Gb.remove t 3;
  check Alcotest.bool "removed" false (Gb.contains t 3);
  Gb.remove t 3 (* no-op *)

let test_gb_lifo_order () =
  let t = mk Gb.Lifo in
  Gb.insert t 1 0;
  Gb.insert t 2 0;
  Gb.insert t 3 0;
  (match Gb.pop_max t with
  | Some (v, _) -> check Alcotest.int "most recent first" 3 v
  | None -> Alcotest.fail "empty");
  match Gb.pop_max t with
  | Some (v, _) -> check Alcotest.int "then previous" 2 v
  | None -> Alcotest.fail "empty"

let test_gb_fifo_order () =
  let t = mk Gb.Fifo in
  Gb.insert t 1 0;
  Gb.insert t 2 0;
  Gb.insert t 3 0;
  match Gb.pop_max t with
  | Some (v, _) -> check Alcotest.int "oldest first" 1 v
  | None -> Alcotest.fail "empty"

let test_gb_random_selects_within_top () =
  let rng = Rng.create 77 in
  let t = Gb.create ~rng ~policy:Gb.Random ~min_gain:(-5) ~max_gain:5 ~capacity:16 () in
  Gb.insert t 1 3;
  Gb.insert t 2 3;
  Gb.insert t 3 1;
  let seen = Hashtbl.create 4 in
  for _ = 1 to 40 do
    match Gb.select_max t with
    | Some (v, g) ->
        check Alcotest.int "always top bucket" 3 g;
        Hashtbl.replace seen v ()
    | None -> Alcotest.fail "empty"
  done;
  check Alcotest.int "both top modules seen" 2 (Hashtbl.length seen)

let test_gb_adjust () =
  let t = mk Gb.Lifo in
  Gb.insert t 1 0;
  Gb.insert t 2 3;
  Gb.adjust t 1 5;
  (match Gb.select_max t with
  | Some (v, g) ->
      check Alcotest.int "adjusted to top" 1 v;
      check Alcotest.int "new gain" 5 g
  | None -> Alcotest.fail "empty");
  Gb.adjust t 1 (-8);
  match Gb.select_max t with
  | Some (v, _) -> check Alcotest.int "dropped below" 2 v
  | None -> Alcotest.fail "empty"

let test_gb_insert_out_of_range () =
  let t = mk Gb.Lifo in
  (match Gb.insert t 0 6 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let test_gb_double_insert_rejected () =
  let t = mk Gb.Lifo in
  Gb.insert t 0 1;
  (match Gb.insert t 0 2 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let test_gb_adjust_errors () =
  (* Both [adjust] failures name [adjust], and leave the bucket as it was. *)
  let t = mk Gb.Lifo in
  Gb.insert t 0 4;
  let raises msg f =
    match f () with
    | () -> Alcotest.failf "expected Invalid_argument %S" msg
    | exception Invalid_argument got -> check Alcotest.string "message" msg got
  in
  raises "Gain_bucket.adjust: gain 7 outside [-5, 5]" (fun () -> Gb.adjust t 0 3);
  raises "Gain_bucket.adjust: gain -6 outside [-5, 5]" (fun () ->
      Gb.adjust t 0 (-10));
  raises "Gain_bucket.adjust: module absent" (fun () -> Gb.adjust t 1 1);
  check Alcotest.int "gain kept" 4 (Gb.gain_of t 0);
  check Alcotest.int "size kept" 1 (Gb.size t)

let test_gb_select_satisfying () =
  let t = mk Gb.Lifo in
  Gb.insert t 1 4;
  Gb.insert t 2 4;
  Gb.insert t 3 2;
  (* refuse the whole top bucket: falls to gain 2 *)
  let v = Gb.select_satisfying t (fun v -> v = 3) in
  check Alcotest.int "fallback module" 3 v;
  check Alcotest.int "fallback gain" 2 (Gb.gain_of t v)

let test_gb_select_satisfying_none () =
  let t = mk Gb.Lifo in
  Gb.insert t 1 0;
  check Alcotest.int "no satisfying" (-1)
    (Gb.select_satisfying t (fun _ -> false))

let test_gb_clear () =
  let t = mk Gb.Lifo in
  Gb.insert t 1 1;
  Gb.clear t;
  check Alcotest.bool "cleared" true (Gb.is_empty t);
  check Alcotest.bool "select on empty" true (Gb.select_max t = None)

let test_gb_max_key_and_iter () =
  let t = mk Gb.Lifo in
  check Alcotest.bool "no key when empty" true (Gb.max_key t = None);
  Gb.insert t 1 2;
  Gb.insert t 2 2;
  Gb.insert t 3 0;
  check Alcotest.bool "max key" true (Gb.max_key t = Some 2);
  let collected = ref [] in
  Gb.iter_key t 2 (fun v -> collected := v :: !collected);
  check Alcotest.(list int) "iter in policy order" [ 2; 1 ] (List.rev !collected)

(* Model test: the bucket structure behaves like sorting by (gain, recency). *)
let prop_gb_pop_order_descending =
  QCheck.Test.make ~name:"pop_max yields non-increasing gains" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 16) (int_range (-5) 5))
    (fun gains ->
      let t = mk Gb.Lifo in
      List.iteri (fun v g -> Gb.insert t v g) gains;
      let rec drain last =
        match Gb.pop_max t with
        | None -> true
        | Some (_, g) -> g <= last && drain g
      in
      drain 6)

let prop_gb_size_tracks =
  QCheck.Test.make ~name:"size tracks inserts and removes" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 16) (int_range (-5) 5))
    (fun gains ->
      let t = mk Gb.Lifo in
      List.iteri (fun v g -> Gb.insert t v g) gains;
      let n = List.length gains in
      let ok1 = Gb.size t = n in
      List.iteri (fun v _ -> Gb.remove t v) gains;
      ok1 && Gb.is_empty t)

(* ---- Kpartition ---- *)

let test_kp_objectives () =
  let h = sample () in
  let kp = Kp.create h ~k:3 [| 0; 0; 1; 1; 2 |] in
  (* net0 internal; net1 spans {0,1} (w2); net2 spans {0,1,2} (w1) *)
  check Alcotest.int "cut" 3 (Kp.cut kp);
  check Alcotest.int "sum of degrees" 4 (Kp.sum_degrees kp);
  check Alcotest.int "spans net2" 3 (Kp.spans kp 2);
  check Alcotest.int "recomputed" 3 (Kp.recompute_cut kp);
  check Alcotest.int "one-shot count" 3 (Kp.cut_of h ~k:3 [| 0; 0; 1; 1; 2 |]);
  List.iter
    (fun (what, k, side) ->
      check Alcotest.bool what true
        (match Kp.cut_of h ~k side with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [
      ("count rejects k < 2", 1, [| 0; 0; 0; 0; 0 |]);
      ("count rejects length", 3, [| 0; 1 |]);
      ("count rejects part >= k", 3, [| 0; 0; 1; 3; 2 |]);
    ]

let test_kp_move () =
  let h = sample () in
  let kp = Kp.create h ~k:3 [| 0; 0; 1; 1; 2 |] in
  Kp.move kp 4 1;
  (* net2 = {0,3,4} now spans {0,1} *)
  check Alcotest.int "spans drop" 2 (Kp.spans kp 2);
  check Alcotest.int "cut unchanged" 3 (Kp.cut kp);
  check Alcotest.int "soed drops" 3 (Kp.sum_degrees kp);
  check Alcotest.int "area moved" (3 + 4 + 5) (Kp.area_of_part kp 1);
  Kp.move kp 4 2;
  check Alcotest.int "back" 4 (Kp.sum_degrees kp)

let test_kp_random_respects_fixed () =
  let h = random_instance 5 in
  let fixed = Array.make (H.num_modules h) (-1) in
  fixed.(0) <- 3;
  fixed.(1) <- 0;
  let kp = Kp.random ~fixed (Rng.create 1) h ~k:4 in
  check Alcotest.int "fixed module 0" 3 (Kp.side kp 0);
  check Alcotest.int "fixed module 1" 0 (Kp.side kp 1)

let test_kp_random_balanced () =
  let h = random_instance 6 in
  let kp = Kp.random (Rng.create 2) h ~k:4 in
  let b = Kp.bounds h ~k:4 in
  check Alcotest.bool "balanced" true (Kp.is_balanced kp b)

let test_kp_move_feasibility () =
  let h = sample () in
  let kp = Kp.create h ~k:2 [| 0; 0; 1; 1; 1 |] in
  let b = { Kp.lo = 1; hi = 14 } in
  check Alcotest.bool "same part infeasible" false (Kp.move_is_feasible kp b 0 0);
  check Alcotest.bool "legal move" true (Kp.move_is_feasible kp b 1 1)

let prop_kp_incremental =
  QCheck.Test.make ~name:"k-way cut and soed consistent under moves" ~count:50
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 40) (pair small_int small_int)))
    (fun (seed, moves) ->
      let h = random_instance seed in
      let kp = Kp.random (Rng.create (seed + 3)) h ~k:4 in
      List.iter
        (fun (m, p) -> Kp.move kp (m mod H.num_modules h) (p mod 4))
        moves;
      let fresh = Kp.create h ~k:4 (Kp.side_array kp) in
      Kp.cut kp = Kp.cut fresh
      && Kp.sum_degrees kp = Kp.sum_degrees fresh
      && Kp.cut_of h ~k:4 (Kp.side_array kp) = Kp.cut kp)

let prop_kp_soed_dominates_cut =
  QCheck.Test.make ~name:"sum of degrees >= cut" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let h = random_instance seed in
      let kp = Kp.random (Rng.create (seed + 4)) h ~k:4 in
      Kp.sum_degrees kp >= Kp.cut kp)

(* ---- Direction skip ----

   Selectors skip a whole gain bucket when [Bp.direction_open] is false or
   [Kp.move_budget] is below the smallest module area.  The skip is exact
   only if no module it passes over could have moved: checked here by
   enumeration, on non-unit areas, in states balanced against bounds drawn
   tight around them. *)

(* [random_instance seed] with module areas drawn from 3..12. *)
let weighted_instance seed =
  let h = random_instance seed in
  let rng = Rng.create (seed + 101) in
  H.make
    ~areas:(Array.init (H.num_modules h) (fun _ -> 3 + Rng.int rng 10))
    ~nets:
      (Array.init (H.num_nets h) (fun e -> (H.pins_of h e, H.net_weight h e)))
    ()

(* Also checks the predicate itself against the side areas a move would
   leave, so a slip in the shared window arithmetic cannot hide behind
   the skip agreeing with it. *)
let bp_skip_is_exact h bp b =
  let ok = ref true and fired = ref 0 in
  for v = 0 to H.num_modules h - 1 do
    let a = H.area h v and a0 = Bp.area_of_side bp 0 in
    let a0' = if Bp.side bp v = 0 then a0 - a else a0 + a in
    if Bp.move_is_feasible bp b v <> (a0' >= b.Bp.lo && a0' <= b.Bp.hi) then
      ok := false
  done;
  for s = 0 to 1 do
    if
      not
        (Bp.direction_open bp b s ~min_area:(H.min_area h)
           ~max_area:(H.max_area h))
    then begin
      incr fired;
      for v = 0 to H.num_modules h - 1 do
        if Bp.side bp v = s && Bp.move_is_feasible bp b v then ok := false
      done
    end
  done;
  (!ok, !fired)

let kp_skip_is_exact h kp b =
  let k = Kp.k kp in
  let ok = ref true and fired = ref 0 in
  for v = 0 to H.num_modules h - 1 do
    let a = H.area h v and p = Kp.side kp v in
    for q = 0 to k - 1 do
      let expected =
        p <> q
        && Kp.area_of_part kp p - a >= b.Kp.lo
        && Kp.area_of_part kp q + a <= b.Kp.hi
      in
      if Kp.move_is_feasible kp b v q <> expected then ok := false
    done
  done;
  for p = 0 to k - 1 do
    for q = 0 to k - 1 do
      if p <> q && Kp.move_budget kp b p q < H.min_area h then begin
        incr fired;
        for v = 0 to H.num_modules h - 1 do
          if Kp.side kp v = p && Kp.move_is_feasible kp b v q then ok := false
        done
      end
    done
  done;
  (!ok, !fired)

let prop_bp_skip_exact =
  QCheck.Test.make ~name:"2-way direction skip passes over no feasible move"
    ~count:60 QCheck.small_int (fun seed ->
      let h = weighted_instance seed in
      let rng = Rng.create (seed + 7) in
      let bp = Bp.random rng h in
      let ok = ref true in
      for _ = 1 to 40 do
        (* bounds that keep the current state balanced, 0..14 from it *)
        let a0 = Bp.area_of_side bp 0 in
        let b = { Bp.lo = a0 - Rng.int rng 15; hi = a0 + Rng.int rng 15 } in
        if not (fst (bp_skip_is_exact h bp b)) then ok := false;
        let v = Rng.int rng (H.num_modules h) in
        if Bp.move_is_feasible bp (Bp.bounds h) v then Bp.move bp v
      done;
      !ok)

let prop_kp_skip_exact =
  QCheck.Test.make ~name:"k-way direction skip passes over no feasible move"
    ~count:60 QCheck.small_int (fun seed ->
      let h = weighted_instance seed in
      let rng = Rng.create (seed + 11) in
      let k = 2 + Rng.int rng 3 in
      let kp = Kp.random rng h ~k in
      let ok = ref true in
      for _ = 1 to 40 do
        let lo = ref max_int and hi = ref 0 in
        for p = 0 to k - 1 do
          lo := Int.min !lo (Kp.area_of_part kp p);
          hi := Int.max !hi (Kp.area_of_part kp p)
        done;
        let b = { Kp.lo = !lo - Rng.int rng 15; hi = !hi + Rng.int rng 15 } in
        if not (fst (kp_skip_is_exact h kp b)) then ok := false;
        let v = Rng.int rng (H.num_modules h) and q = Rng.int rng k in
        if Kp.move_is_feasible kp (Kp.bounds h ~k) v q then Kp.move kp v q
      done;
      !ok)

(* Unit areas, one side or part drained to its lower bound: the skip must
   fire there, so the properties above are not vacuous. *)
let test_skip_fires_at_bound () =
  let h = random_instance 3 in
  check Alcotest.int "unit areas" 1 (H.min_area h);
  let bp = Bp.random (Rng.create 4) h in
  let b = Bp.bounds h in
  for v = 0 to H.num_modules h - 1 do
    if Bp.side bp v = 0 && Bp.move_is_feasible bp b v then Bp.move bp v
  done;
  check Alcotest.int "side 0 at its lower bound" b.Bp.lo (Bp.area_of_side bp 0);
  let ok, fired = bp_skip_is_exact h bp b in
  check Alcotest.bool "2-way skip exact" true ok;
  check Alcotest.int "2-way skip fires on side 0 only" 1 fired;
  let k = 3 in
  let kp = Kp.random (Rng.create 5) h ~k in
  let b = Kp.bounds h ~k in
  for v = 0 to H.num_modules h - 1 do
    if Kp.side kp v = 0 then
      for q = 1 to k - 1 do
        if Kp.side kp v = 0 && Kp.move_is_feasible kp b v q then Kp.move kp v q
      done
  done;
  check Alcotest.int "part 0 at its lower bound" b.Kp.lo (Kp.area_of_part kp 0);
  let ok, fired = kp_skip_is_exact h kp b in
  check Alcotest.bool "k-way skip exact" true ok;
  check Alcotest.bool "k-way skip fires out of part 0" true (fired >= k - 1);
  check Alcotest.int "budget helper agrees"
    (Kp.budget b ~from_area:(Kp.area_of_part kp 1)
       ~to_area:(Kp.area_of_part kp 2))
    (Kp.move_budget kp b 1 2)

(* ---- Objective ---- *)

module Objective = Mlpart_partition.Objective

(* sample(): net0 = {0,1} w1, net1 = {1,2,3} w2, net2 = {0,3,4} w1 *)

let test_obj_bipartition () =
  let h = sample () in
  (* net0 internal to part 0; net1 and net2 both span 2 parts *)
  let r = Objective.evaluate h [| 0; 0; 1; 1; 1 |] in
  check Alcotest.int "parts" 2 r.Objective.parts;
  check Alcotest.int "cut" 3 r.Objective.net_cut;
  check Alcotest.int "soed" 3 r.Objective.sum_degrees;
  check Alcotest.int "absorbed" 1 r.Objective.absorbed;
  check Alcotest.(array int) "areas" [| 3; 12 |] r.Objective.part_areas;
  check Alcotest.int "largest" 12 r.Objective.largest_part;
  check Alcotest.int "smallest" 3 r.Objective.smallest_part

let test_obj_three_parts () =
  let h = sample () in
  (* net2 now spans 3 parts: same cut as above but SOED rises by 1 *)
  let r = Objective.evaluate h [| 0; 0; 1; 1; 2 |] in
  check Alcotest.int "parts" 3 r.Objective.parts;
  check Alcotest.int "cut" 3 r.Objective.net_cut;
  check Alcotest.int "soed" 4 r.Objective.sum_degrees;
  check Alcotest.int "absorbed" 1 r.Objective.absorbed;
  check Alcotest.(array int) "areas" [| 3; 7; 5 |] r.Objective.part_areas;
  check Alcotest.int "largest" 7 r.Objective.largest_part;
  check Alcotest.int "smallest" 3 r.Objective.smallest_part

let test_obj_single_part () =
  let h = sample () in
  let r = Objective.evaluate h [| 0; 0; 0; 0; 0 |] in
  check Alcotest.int "parts" 1 r.Objective.parts;
  check Alcotest.int "cut" 0 r.Objective.net_cut;
  check Alcotest.int "soed" 0 r.Objective.sum_degrees;
  (* every net absorbed: total weight 1 + 2 + 1 *)
  check Alcotest.int "absorbed" 4 r.Objective.absorbed;
  check Alcotest.(array int) "areas" [| 15 |] r.Objective.part_areas

let test_obj_weighted_net_internal () =
  let h = sample () in
  (* the weight-2 net is the only absorbed one; both unit nets are cut *)
  let r = Objective.evaluate h [| 1; 0; 0; 0; 1 |] in
  check Alcotest.int "cut" 2 r.Objective.net_cut;
  check Alcotest.int "soed" 2 r.Objective.sum_degrees;
  check Alcotest.int "absorbed" 2 r.Objective.absorbed

let test_obj_rejects_bad_input () =
  let h = sample () in
  check Alcotest.bool "length mismatch" true
    (match Objective.evaluate h [| 0; 1 |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check Alcotest.bool "negative part" true
    (match Objective.evaluate h [| 0; 0; -1; 1; 1 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "partition-state"
    [
      ( "bipartition",
        [
          Alcotest.test_case "cut" `Quick test_bp_cut;
          Alcotest.test_case "pins_on" `Quick test_bp_pins_on;
          Alcotest.test_case "move updates" `Quick test_bp_move_updates;
          Alcotest.test_case "gain matches move" `Quick test_bp_gain_matches_move;
          Alcotest.test_case "gain threshold" `Quick test_bp_gain_threshold;
          Alcotest.test_case "reject bad side" `Quick test_bp_create_rejects_bad_side;
          Alcotest.test_case "bounds" `Quick test_bp_bounds;
          Alcotest.test_case "random balanced" `Quick test_bp_random_balanced;
          Alcotest.test_case "rebalance" `Quick test_bp_rebalance;
          qtest prop_bp_incremental_cut;
          qtest prop_bp_gain_is_cut_delta;
        ] );
      ( "gain_bucket",
        [
          Alcotest.test_case "basic" `Quick test_gb_basic;
          Alcotest.test_case "lifo order" `Quick test_gb_lifo_order;
          Alcotest.test_case "fifo order" `Quick test_gb_fifo_order;
          Alcotest.test_case "random within top" `Quick
            test_gb_random_selects_within_top;
          Alcotest.test_case "adjust" `Quick test_gb_adjust;
          Alcotest.test_case "insert out of range" `Quick test_gb_insert_out_of_range;
          Alcotest.test_case "adjust errors" `Quick test_gb_adjust_errors;
          Alcotest.test_case "double insert rejected" `Quick
            test_gb_double_insert_rejected;
          Alcotest.test_case "select satisfying" `Quick test_gb_select_satisfying;
          Alcotest.test_case "select satisfying none" `Quick
            test_gb_select_satisfying_none;
          Alcotest.test_case "clear" `Quick test_gb_clear;
          Alcotest.test_case "max key and iter" `Quick test_gb_max_key_and_iter;
          qtest prop_gb_pop_order_descending;
          qtest prop_gb_size_tracks;
        ] );
      ( "kpartition",
        [
          Alcotest.test_case "objectives" `Quick test_kp_objectives;
          Alcotest.test_case "move" `Quick test_kp_move;
          Alcotest.test_case "fixed respected" `Quick test_kp_random_respects_fixed;
          Alcotest.test_case "random balanced" `Quick test_kp_random_balanced;
          Alcotest.test_case "move feasibility" `Quick test_kp_move_feasibility;
          qtest prop_kp_incremental;
          qtest prop_kp_soed_dominates_cut;
        ] );
      ( "dir_skip",
        [
          qtest prop_bp_skip_exact;
          qtest prop_kp_skip_exact;
          Alcotest.test_case "fires at a bound" `Quick test_skip_fires_at_bound;
        ] );
      ( "objective",
        [
          Alcotest.test_case "bipartition metrics" `Quick test_obj_bipartition;
          Alcotest.test_case "three parts" `Quick test_obj_three_parts;
          Alcotest.test_case "single part" `Quick test_obj_single_part;
          Alcotest.test_case "weighted net internal" `Quick
            test_obj_weighted_net_internal;
          Alcotest.test_case "rejects bad input" `Quick
            test_obj_rejects_bad_input;
        ] );
    ]
