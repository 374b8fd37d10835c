(* Tests for the FM engine family: plain FM, bucket policies, CLIP,
   lookahead, CDIP backtracking, early exit, PROP and LSMC. *)

module H = Mlpart_hypergraph.Hypergraph
module Bp = Mlpart_partition.Bipartition
module Fm = Mlpart_partition.Fm
module Prop = Mlpart_partition.Prop
module Lsmc = Mlpart_partition.Lsmc
module Gb = Mlpart_partition.Gain_bucket
module Rng = Mlpart_util.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let random_instance ?(modules = 120) seed =
  let rng = Rng.create seed in
  Mlpart_gen.Generate.rent ~rng ~modules ~nets:(modules * 5 / 4)
    ~pins:(4 * modules) ()

(* Two 8-module cliques with one bridge net: optimal cut is 1. *)
let two_cliques () =
  let b = Mlpart_hypergraph.Builder.create ~name:"two-cliques" () in
  Mlpart_hypergraph.Builder.add_modules b 16;
  for v = 0 to 7 do
    for w = v + 1 to 7 do
      Mlpart_hypergraph.Builder.add_net b [ v; w ];
      Mlpart_hypergraph.Builder.add_net b [ v + 8; w + 8 ]
    done
  done;
  Mlpart_hypergraph.Builder.add_net b [ 0; 8 ];
  Mlpart_hypergraph.Builder.build b

let balanced h side =
  let bp = Bp.create h side in
  Bp.is_balanced bp (Bp.bounds h)

let run ?config ?init seed h = Fm.run ?config ?init (Rng.create seed) h

let test_fm_finds_clique_split () =
  let h = two_cliques () in
  let best = ref max_int in
  for seed = 1 to 5 do
    let r = run seed h in
    best := Stdlib.min !best r.Fm.cut
  done;
  check Alcotest.int "optimal cut found" 1 !best

let test_fm_result_consistent () =
  let h = random_instance 1 in
  let r = run 2 h in
  check Alcotest.int "reported cut matches recount" (Fm.cut_of h r.Fm.side)
    r.Fm.cut;
  check Alcotest.bool "balanced" true (balanced h r.Fm.side);
  check Alcotest.bool "at least one pass" true (r.Fm.passes >= 1)

let test_fm_improves_on_refinement () =
  let h = random_instance 3 in
  (* refining any starting solution never worsens it *)
  let rng = Rng.create 4 in
  let start = Bp.random rng h in
  let init = Bp.side_array start in
  let r = run ~init 5 h in
  check Alcotest.bool "no worse than start" true (r.Fm.cut <= Bp.cut start)

let test_fm_refines_good_init () =
  let h = two_cliques () in
  let init = Array.init 16 (fun v -> if v < 8 then 0 else 1) in
  let r = run ~init 6 h in
  check Alcotest.int "optimal preserved" 1 r.Fm.cut

let test_fm_max_passes () =
  let h = random_instance 7 in
  let r = run ~config:{ Fm.default with max_passes = 1 } 8 h in
  check Alcotest.int "single pass honoured" 1 r.Fm.passes

let test_fm_policies_all_valid () =
  let h = random_instance 9 in
  List.iter
    (fun policy ->
      let r = run ~config:{ Fm.default with policy } 10 h in
      check Alcotest.int
        (Printf.sprintf "cut consistent (%s)" (Gb.policy_to_string policy))
        (Fm.cut_of h r.Fm.side) r.Fm.cut;
      check Alcotest.bool "balanced" true (balanced h r.Fm.side))
    [ Gb.Lifo; Gb.Fifo; Gb.Random ]

let test_clip_valid () =
  let h = random_instance 11 in
  let r = run ~config:Fm.clip 12 h in
  check Alcotest.int "clip cut consistent" (Fm.cut_of h r.Fm.side) r.Fm.cut;
  check Alcotest.bool "balanced" true (balanced h r.Fm.side)

let test_lookahead_valid () =
  let h = random_instance 13 in
  List.iter
    (fun levels ->
      let config = { Fm.clip with tie_break = Fm.Lookahead levels } in
      let r = run ~config 14 h in
      check Alcotest.int
        (Printf.sprintf "lookahead-%d cut consistent" levels)
        (Fm.cut_of h r.Fm.side) r.Fm.cut)
    [ 1; 2; 3 ]

let test_cdip_valid () =
  let h = random_instance 15 in
  let r = run ~config:{ Fm.clip with backtrack = Some (10, 4) } 16 h in
  check Alcotest.int "cdip cut consistent" (Fm.cut_of h r.Fm.side) r.Fm.cut;
  check Alcotest.bool "balanced" true (balanced h r.Fm.side)

let test_early_exit_valid () =
  let h = random_instance 17 in
  let r = run ~config:{ Fm.default with early_exit = Some 5 } 18 h in
  check Alcotest.int "early-exit cut consistent" (Fm.cut_of h r.Fm.side) r.Fm.cut

let test_boundary_valid () =
  let h = random_instance 27 in
  let r = run ~config:{ Fm.default with boundary = true } 28 h in
  check Alcotest.int "boundary cut consistent" (Fm.cut_of h r.Fm.side) r.Fm.cut;
  check Alcotest.bool "balanced" true (balanced h r.Fm.side)

let test_boundary_refines_good_init () =
  let h = two_cliques () in
  let init = Array.init 16 (fun v -> if v < 8 then 0 else 1) in
  let r = run ~config:{ Fm.default with boundary = true } ~init 29 h in
  check Alcotest.int "optimal preserved under boundary FM" 1 r.Fm.cut

let test_wide_balance_valid () =
  let h = random_instance 19 in
  let r = run ~config:{ Fm.default with wide_balance = true } 20 h in
  let bp = Bp.create h r.Fm.side in
  check Alcotest.bool "within wide bounds" true
    (Bp.is_balanced bp (Bp.wide_bounds h))

let test_fm_deterministic () =
  let h = random_instance 21 in
  let a = run 22 h and b = run 22 h in
  check Alcotest.int "same seed, same cut" a.Fm.cut b.Fm.cut;
  check Alcotest.(array int) "same sides" a.Fm.side b.Fm.side

let test_fm_net_threshold_cut_counted () =
  (* A big net above the threshold must still show up in the cut. *)
  let b = Mlpart_hypergraph.Builder.create () in
  Mlpart_hypergraph.Builder.add_modules b 12;
  Mlpart_hypergraph.Builder.add_net b (List.init 12 Fun.id);
  for v = 0 to 4 do
    Mlpart_hypergraph.Builder.add_net b [ v; v + 1 ]
  done;
  for v = 6 to 10 do
    Mlpart_hypergraph.Builder.add_net b [ v; v + 1 ]
  done;
  let h = Mlpart_hypergraph.Builder.build b in
  let r = run ~config:{ Fm.default with net_threshold = 4 } 23 h in
  (* the 12-pin net spans any balanced split *)
  check Alcotest.bool "large net counted in cut" true (r.Fm.cut >= 1);
  check Alcotest.int "consistent" (Fm.cut_of h r.Fm.side) r.Fm.cut

let test_fm_unbalanced_init_repaired () =
  let h = random_instance 24 in
  let init = Array.make (H.num_modules h) 0 in
  let r = run ~init 25 h in
  check Alcotest.bool "balanced result from degenerate init" true
    (balanced h r.Fm.side)

let test_fm_tiny_instance () =
  (* The paper's balance slack includes max(A(v_max), ...), so a 2-module
     instance may legally collapse to one side with cut 0. *)
  let h = H.make ~areas:[| 1; 1 |] ~nets:[| ([| 0; 1 |], 1) |] () in
  let r = run 26 h in
  check Alcotest.int "consistent" (Fm.cut_of h r.Fm.side) r.Fm.cut;
  check Alcotest.bool "cut 0 or 1" true (r.Fm.cut = 0 || r.Fm.cut = 1)

let prop_fm_all_configs_consistent =
  let configs =
    [
      ("fm", Fm.default);
      ("clip", Fm.clip);
      ("fifo", { Fm.default with policy = Gb.Fifo });
      ("rnd", { Fm.default with policy = Gb.Random });
      ("la2", { Fm.clip with tie_break = Fm.Lookahead 2 });
      ("cdip", { Fm.clip with backtrack = Some (8, 3) });
      ("early", { Fm.default with early_exit = Some 10 });
      ("boundary", { Fm.default with boundary = true });
      ("boundary-clip", { Fm.clip with boundary = true });
    ]
  in
  QCheck.Test.make ~name:"every engine config: cut consistent and balanced"
    ~count:30
    QCheck.(pair small_int (int_range 0 8))
    (fun (seed, which) ->
      let _, config = List.nth configs which in
      let h = random_instance ~modules:60 seed in
      let r = Fm.run ~config (Rng.create (seed + 100)) h in
      r.Fm.cut = Fm.cut_of h r.Fm.side && balanced h r.Fm.side)

let prop_fm_weighted_nets =
  QCheck.Test.make ~name:"weighted coarse netlists partition consistently"
    ~count:20 QCheck.small_int (fun seed ->
      let h = random_instance ~modules:80 seed in
      (* coarsen with duplicate merging to create weighted nets *)
      let rng = Rng.create (seed + 7) in
      let cluster_of, _ = Mlpart_multilevel.Match.run rng h ~ratio:1.0 in
      let coarse, _ = H.induce ~merge_duplicates:true h cluster_of in
      let r = Fm.run (Rng.create (seed + 8)) coarse in
      r.Fm.cut = Fm.cut_of coarse r.Fm.side)

let test_fm_fixed_modules_pinned () =
  let h = random_instance 50 in
  let fixed = Array.make (H.num_modules h) (-1) in
  fixed.(0) <- 0;
  fixed.(1) <- 1;
  fixed.(2) <- 0;
  let r = Fm.run ~fixed (Rng.create 51) h in
  check Alcotest.int "module 0 pinned left" 0 r.Fm.side.(0);
  check Alcotest.int "module 1 pinned right" 1 r.Fm.side.(1);
  check Alcotest.int "module 2 pinned left" 0 r.Fm.side.(2);
  check Alcotest.int "consistent" (Fm.cut_of h r.Fm.side) r.Fm.cut

let test_fm_fixed_overrides_init () =
  let h = random_instance 52 in
  let n = H.num_modules h in
  let init = Array.make n 0 in
  let fixed = Array.make n (-1) in
  fixed.(3) <- 1;
  let r = Fm.run ~init ~fixed (Rng.create 53) h in
  check Alcotest.int "fixed wins over init" 1 r.Fm.side.(3)

let test_fm_fixed_with_clip_and_backtrack () =
  let h = random_instance 54 in
  let fixed = Array.make (H.num_modules h) (-1) in
  for v = 0 to 5 do
    fixed.(v) <- v land 1
  done;
  let config = { Fm.clip with backtrack = Some (12, 4) } in
  let r = Fm.run ~config ~fixed (Rng.create 55) h in
  for v = 0 to 5 do
    check Alcotest.int "pinned through CDIP rebuilds" (v land 1) r.Fm.side.(v)
  done

(* ---- Engine-overhaul regression: CDIP + boundary behaviour ---- *)

let hash_side side =
  Array.fold_left (fun acc s -> (acc * 1000003) + s) 5381 side land 0x3FFFFFFF

(* Exact (cut, passes, moves, side-hash) recorded from the engine BEFORE the
   epoch-bucket/arena/fused-move overhaul, on the same generated instances;
   the overhaul is required to be bit-identical, so these must never drift. *)
let test_engine_golden () =
  let cases =
    [
      ("cdip", { Fm.clip with backtrack = Some (8, 3) }, 60, 1, (9, 4, 227, 46779324));
      ("cdip", { Fm.clip with backtrack = Some (8, 3) }, 120, 1, (16, 4, 468, 99476278));
      ("boundary", { Fm.default with boundary = true }, 60, 1, (9, 2, 115, 166745785));
      ("boundary", { Fm.default with boundary = true }, 120, 2, (20, 4, 472, 789123538));
      ("boundary-clip", { Fm.clip with boundary = true }, 60, 1, (3, 3, 168, 289235633));
      ( "boundary-cdip",
        { Fm.clip with boundary = true; backtrack = Some (6, 2) },
        120, 2, (20, 5, 577, 885012033) );
    ]
  in
  List.iter
    (fun (name, config, modules, seed, (cut, passes, moves, h_side)) ->
      let h = random_instance ~modules seed in
      let r = Fm.run ~config (Rng.create (seed + 100)) h in
      let label = Printf.sprintf "%s n%d s%d" name modules seed in
      check Alcotest.int (label ^ " cut") cut r.Fm.cut;
      check Alcotest.int (label ^ " passes") passes r.Fm.passes;
      check Alcotest.int (label ^ " moves") moves r.Fm.moves;
      check Alcotest.int (label ^ " side hash") h_side (hash_side r.Fm.side))
    cases

(* ---- Refine_core: the shared move loop, driven by scripted ops ----

   The FM engines all run through [Refine_core.run_pass] now; these tests
   pin its best-prefix, early-exit and backtrack semantics on a scripted
   gain sequence, independently of any hypergraph. *)

module Rc = Mlpart_partition.Refine_core

let scripted gains =
  let i = ref 0 in
  let log = ref [] in
  let ops =
    {
      Rc.select = (fun () -> if !i >= Array.length gains then -1 else !i);
      commit =
        (fun v ->
          log := `Commit v :: !log;
          incr i;
          gains.(v));
      undo = (fun v -> log := `Undo v :: !log);
      rebuild =
        (fun ~first_bad ~kept -> log := `Rebuild (first_bad, kept) :: !log);
    }
  in
  (ops, fun () -> List.rev !log)

let run_scripted ?early_exit ?backtrack gains =
  let ops, log = scripted gains in
  let order = Array.make (Stdlib.max 1 (Array.length gains)) (-1) in
  let p = Rc.run_pass ~order ?early_exit ?backtrack ops in
  (p, log ())

let test_refine_core_best_prefix () =
  (* cumulative gains 3,2,4,-1: the best prefix is the first three moves,
     so exactly the fourth is undone *)
  let p, log = run_scripted [| 3; -1; 2; -5 |] in
  check Alcotest.int "gain" 4 p.Rc.gain;
  check Alcotest.int "moves" 4 p.Rc.moves;
  check Alcotest.int "rolled back" 1 p.Rc.rolled_back;
  check Alcotest.bool "only move 3 undone" true
    (log = [ `Commit 0; `Commit 1; `Commit 2; `Commit 3; `Undo 3 ])

let test_refine_core_all_negative () =
  (* never above zero: the empty prefix wins and everything is undone, in
     reverse commit order *)
  let p, log = run_scripted [| -2; -1 |] in
  check Alcotest.int "gain" 0 p.Rc.gain;
  check Alcotest.int "rolled back" 2 p.Rc.rolled_back;
  check Alcotest.bool "all undone in reverse" true
    (log = [ `Commit 0; `Commit 1; `Undo 1; `Undo 0 ])

let test_refine_core_early_exit () =
  (* the losing streak hits the early-exit budget after two non-improving
     moves; the remaining script is never selected *)
  let p, log = run_scripted ~early_exit:2 [| 2; -1; -1; -1; -1 |] in
  check Alcotest.int "gain" 2 p.Rc.gain;
  check Alcotest.int "moves" 3 p.Rc.moves;
  check Alcotest.int "rolled back" 2 p.Rc.rolled_back;
  check Alcotest.bool "stopped after the streak" true
    (log = [ `Commit 0; `Commit 1; `Commit 2; `Undo 2; `Undo 1 ])

let test_refine_core_backtrack () =
  (* window 2, limit 1: the two losing moves are undone mid-pass, the host
     is asked to rebuild with the streak's first module flagged, and the
     pass then ends at the restored best prefix with nothing left to
     roll back *)
  let p, log = run_scripted ~backtrack:(2, 1) [| 3; -1; -1 |] in
  check Alcotest.int "gain" 3 p.Rc.gain;
  check Alcotest.int "moves" 1 p.Rc.moves;
  check Alcotest.int "rolled back" 0 p.Rc.rolled_back;
  check Alcotest.bool "streak undone then rebuild" true
    (log
    = [
        `Commit 0; `Commit 1; `Commit 2; `Undo 2; `Undo 1; `Rebuild (1, 1);
      ])

let test_refine_core_backtrack_limit () =
  (* limit 0 must behave exactly like no backtracking *)
  let a, _ = run_scripted ~backtrack:(2, 0) [| 3; -1; -1 |] in
  let b, _ = run_scripted [| 3; -1; -1 |] in
  check Alcotest.int "same gain" b.Rc.gain a.Rc.gain;
  check Alcotest.int "same moves" b.Rc.moves a.Rc.moves;
  check Alcotest.int "same rollback" b.Rc.rolled_back a.Rc.rolled_back

let test_refine_core_drive () =
  (* drive stops after the first non-positive pass and sums moves *)
  let script = [| (5, 10); (2, 20); (0, 30); (9, 40) |] in
  let calls = ref [] in
  let passes, moves =
    Rc.drive ~max_passes:10 (fun ~pass ->
        calls := pass :: !calls;
        let gain, moves = script.(pass - 1) in
        { Rc.gain; moves; rolled_back = 0 })
  in
  check Alcotest.int "passes" 3 passes;
  check Alcotest.int "moves summed" 60 moves;
  check Alcotest.bool "pass numbers 1..3" true (List.rev !calls = [ 1; 2; 3 ]);
  (* and respects max_passes even while improving *)
  let passes, moves =
    Rc.drive ~max_passes:2 (fun ~pass ->
        { Rc.gain = 1; moves = pass; rolled_back = 0 })
  in
  check Alcotest.int "capped passes" 2 passes;
  check Alcotest.int "capped moves" 3 moves

(* Each pass keeps only its best prefix, so with a fixed seed the cut after
   [p] passes is non-increasing in [p] — for CDIP and boundary mode too,
   whose backtracks and partial frontiers must not break the invariant. *)
let test_pass_cut_monotone () =
  List.iter
    (fun (name, config) ->
      let h = random_instance ~modules:100 31 in
      let prev = ref max_int in
      for p = 1 to 5 do
        let r = run ~config:{ config with Fm.max_passes = p } 32 h in
        check Alcotest.bool
          (Printf.sprintf "%s: cut non-increasing at pass %d" name p)
          true (r.Fm.cut <= !prev);
        prev := r.Fm.cut
      done)
    [
      ("cdip", { Fm.clip with backtrack = Some (8, 3) });
      ("boundary", { Fm.default with boundary = true });
      ("boundary-cdip", { Fm.clip with boundary = true; backtrack = Some (6, 2) });
    ]

(* A backtrack budget of zero must behave exactly like no backtracking: the
   limit check gates every rollback. *)
let test_cdip_zero_limit_is_plain () =
  let h = random_instance ~modules:90 33 in
  let a = run ~config:{ Fm.clip with backtrack = Some (8, 0) } 34 h in
  let b = run ~config:Fm.clip 34 h in
  check Alcotest.int "same cut" b.Fm.cut a.Fm.cut;
  check Alcotest.(array int) "same sides" b.Fm.side a.Fm.side;
  check Alcotest.int "same moves" b.Fm.moves a.Fm.moves

(* Permanently-frozen (fixed) modules must stay out of the move sequence
   through boundary frontiers and CDIP backtrack rebuilds alike. *)
let test_boundary_fixed_stay_out () =
  let h = random_instance ~modules:80 35 in
  let n = H.num_modules h in
  let fixed = Array.make n (-1) in
  for v = 0 to 7 do
    fixed.(v) <- v land 1
  done;
  List.iter
    (fun (name, config) ->
      let r = Fm.run ~config ~fixed (Rng.create 36) h in
      for v = 0 to 7 do
        check Alcotest.int
          (Printf.sprintf "%s: module %d stays pinned" name v)
          (v land 1) r.Fm.side.(v)
      done;
      check Alcotest.int (name ^ ": consistent") (Fm.cut_of h r.Fm.side) r.Fm.cut)
    [
      ("boundary", { Fm.default with boundary = true });
      ("boundary-cdip", { Fm.clip with boundary = true; backtrack = Some (6, 2) });
    ]

(* ---- Arena reuse ---- *)

(* Reusing one arena across runs — including across netlists of different
   sizes, forcing [ensure_arena] growth and shrink of [ids] — must be
   bit-identical to fresh engine state, for every engine feature that
   touches the arena (buckets, gain0, frontier marks, move stack). *)
let prop_arena_reuse_bit_identical =
  let configs =
    [
      Fm.default;
      Fm.clip;
      { Fm.default with policy = Gb.Fifo };
      { Fm.default with policy = Gb.Random };
      { Fm.clip with policy = Gb.Fifo };
      { Fm.clip with policy = Gb.Random };
      { Fm.clip with tie_break = Fm.Lookahead 3 };
      { Fm.clip with backtrack = Some (8, 3) };
      { Fm.default with boundary = true };
      { Fm.clip with boundary = true; backtrack = Some (6, 2) };
    ]
  in
  QCheck.Test.make ~name:"arena reuse is bit-identical to fresh state"
    ~count:25
    QCheck.(pair small_int (int_range 0 9))
    (fun (seed, which) ->
      let config = List.nth configs which in
      let h_small = random_instance ~modules:50 seed in
      let h_large = random_instance ~modules:110 (seed + 1) in
      let arena = Fm.create_arena () in
      (* grow, shrink, regrow across three runs on two netlists *)
      let a1 = Fm.run ~config ~arena (Rng.create (seed + 10)) h_large in
      let a2 = Fm.run ~config ~arena (Rng.create (seed + 11)) h_small in
      let a3 = Fm.run ~config ~arena (Rng.create (seed + 10)) h_large in
      let f1 = Fm.run ~config (Rng.create (seed + 10)) h_large in
      let f2 = Fm.run ~config (Rng.create (seed + 11)) h_small in
      let same a f =
        a.Fm.cut = f.Fm.cut && a.Fm.passes = f.Fm.passes
        && a.Fm.moves = f.Fm.moves && a.Fm.side = f.Fm.side
      in
      same a1 f1 && same a2 f2 && same a3 f1)

(* The multilevel multi-start driver gives each pool domain its own arena;
   results must not depend on the worker count. *)
let test_arena_pool_jobs_identical () =
  let module Ml = Mlpart_multilevel.Ml in
  let module Pool = Mlpart_util.Pool in
  let h = random_instance ~modules:200 37 in
  let config = { Ml.mlc with Ml.coarsest_starts = 2 } in
  let ml_starts ?pool ~starts rng h =
    fst
      (Mlpart_util.Multistart.best ?pool ~starts
         ~cut:(fun r -> r.Ml.cut)
         (fun rng -> Ml.run ~config rng h)
         rng)
  in
  let seq = ml_starts ~starts:4 (Rng.create 38) h in
  Pool.with_pool ~jobs:1 (fun pool ->
      let r = ml_starts ~pool ~starts:4 (Rng.create 38) h in
      check Alcotest.int "jobs 1: same cut" seq.Ml.cut r.Ml.cut;
      check Alcotest.(array int) "jobs 1: same sides" seq.Ml.side r.Ml.side);
  Pool.with_pool ~jobs:4 (fun pool ->
      let r = ml_starts ~pool ~starts:4 (Rng.create 38) h in
      check Alcotest.int "jobs 4: same cut" seq.Ml.cut r.Ml.cut;
      check Alcotest.(array int) "jobs 4: same sides" seq.Ml.side r.Ml.side)

(* ---- Objective ---- *)

module Obj = Mlpart_partition.Objective

let test_objective_report () =
  let h =
    H.make ~areas:[| 1; 2; 3; 4; 5 |]
      ~nets:[| ([| 0; 1 |], 1); ([| 1; 2; 3 |], 2); ([| 0; 3; 4 |], 1) |]
      ()
  in
  let r = Obj.evaluate h [| 0; 0; 1; 1; 2 |] in
  check Alcotest.int "parts" 3 r.Obj.parts;
  check Alcotest.int "cut" 3 r.Obj.net_cut;
  (* net1 spans 2 (w2 -> 2), net2 spans 3 (w1 -> 2), net0 internal *)
  check Alcotest.int "soed" 4 r.Obj.sum_degrees;
  check Alcotest.int "absorbed" 1 r.Obj.absorbed;
  check Alcotest.(array int) "areas" [| 3; 7; 5 |] r.Obj.part_areas;
  check Alcotest.int "largest" 7 r.Obj.largest_part;
  check Alcotest.int "smallest" 3 r.Obj.smallest_part

let test_objective_rejects_bad () =
  let h = H.make ~areas:[| 1; 1 |] ~nets:[| ([| 0; 1 |], 1) |] () in
  (match Obj.evaluate h [| 0 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let test_objective_assignment_roundtrip () =
  let side = [| 0; 3; 1; 2; 0 |] in
  let path = Filename.temp_file "mlpart_parts" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obj.write_assignment path side;
      check Alcotest.(array int) "roundtrip" side (Obj.read_assignment path))

let test_objective_read_rejects_garbage () =
  let path = Filename.temp_file "mlpart_parts" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc "0\nxyz\n");
      match Obj.read_assignment path with
      | _ -> Alcotest.fail "expected Mlpart_error"
      | exception Mlpart_util.Diag.Mlpart_error (d :: _) ->
          Alcotest.(check bool)
            "bad-part code" true
            (d.Mlpart_util.Diag.code = Mlpart_util.Diag.Bad_part);
          Alcotest.(check int) "line number" 2 d.Mlpart_util.Diag.line)

(* ---- PROP ---- *)

let test_prop_valid () =
  let h = random_instance 30 in
  let r = Prop.run (Rng.create 31) h in
  check Alcotest.int "prop cut consistent" (Fm.cut_of h r.Prop.side) r.Prop.cut;
  check Alcotest.bool "balanced" true (balanced h r.Prop.side)

let test_prop_clip_valid () =
  let h = random_instance 32 in
  let r = Prop.run ~config:{ Prop.default with clip = true } (Rng.create 33) h in
  check Alcotest.int "cl-pr cut consistent" (Fm.cut_of h r.Prop.side) r.Prop.cut

let test_prop_finds_clique_split () =
  let h = two_cliques () in
  let best = ref max_int in
  for seed = 1 to 5 do
    let r = Prop.run (Rng.create seed) h in
    best := Stdlib.min !best r.Prop.cut
  done;
  check Alcotest.int "optimal found" 1 !best

let test_prop_limit_is_fm_like () =
  (* With p -> 0 PROP's ordering degenerates to FM's; it should still
     produce a valid, decent solution. *)
  let h = random_instance 34 in
  let r = Prop.run ~config:{ Prop.default with p = 1e-9 } (Rng.create 35) h in
  check Alcotest.int "valid at p=0 limit" (Fm.cut_of h r.Prop.side) r.Prop.cut

let prop_prop_consistent =
  QCheck.Test.make ~name:"PROP cut consistent on random instances" ~count:20
    QCheck.small_int (fun seed ->
      let h = random_instance ~modules:60 seed in
      let r = Prop.run (Rng.create (seed + 50)) h in
      r.Prop.cut = Fm.cut_of h r.Prop.side && balanced h r.Prop.side)

let test_prop_max_passes () =
  let h = random_instance 80 in
  let r =
    Prop.run ~config:{ Prop.default with max_passes = 1 } (Rng.create 81) h
  in
  check Alcotest.int "single pass" 1 r.Prop.passes

(* ---- Genetic ---- *)

module Genetic = Mlpart_partition.Genetic

let test_genetic_valid () =
  let h = random_instance 60 in
  let r = Genetic.run (Rng.create 61) h in
  check Alcotest.int "cut consistent" (Fm.cut_of h r.Genetic.side) r.Genetic.cut;
  check Alcotest.bool "balanced" true (balanced h r.Genetic.side);
  check Alcotest.int "evaluations counted"
    (Genetic.default.Genetic.population + Genetic.default.Genetic.generations)
    r.Genetic.evaluations

let test_genetic_no_worse_than_population_best () =
  (* GA's first population member uses the same stream prefix as one FM
     run would; across a few seeds the GA must never lose to single FM. *)
  let h = random_instance 62 in
  let wins = ref 0 in
  for seed = 1 to 4 do
    let ga = Genetic.run (Rng.create seed) h in
    let fm = Fm.run (Rng.create seed) h in
    if ga.Genetic.cut <= fm.Fm.cut then incr wins
  done;
  check Alcotest.bool "ga at least as good in most trials" true (!wins >= 3)

let test_genetic_seeded_init () =
  let h = two_cliques () in
  let init = Array.init 16 (fun v -> if v < 8 then 0 else 1) in
  let r = Genetic.run ~init (Rng.create 63) h in
  check Alcotest.int "optimum preserved" 1 r.Genetic.cut

let test_genetic_rejects_tiny_population () =
  let h = random_instance 64 in
  let config = { Genetic.default with Genetic.population = 1 } in
  (match Genetic.run ~config (Rng.create 1) h with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

(* ---- KL ---- *)

module Kl = Mlpart_partition.Kl

let test_kl_valid () =
  let h = random_instance 70 in
  let r = Kl.run (Rng.create 71) h in
  check Alcotest.int "cut consistent" (Fm.cut_of h r.Kl.side) r.Kl.cut;
  check Alcotest.bool "passes counted" true (r.Kl.passes >= 1)

let test_kl_preserves_exact_balance () =
  (* swaps keep side populations exactly as the initial solution had them *)
  let h = random_instance 72 in
  let n = H.num_modules h in
  let init = Array.init n (fun v -> v land 1) in
  let r = Kl.run ~init (Rng.create 73) h in
  let count0 = Array.fold_left (fun acc s -> acc + (1 - s)) 0 r.Kl.side in
  check Alcotest.int "side sizes unchanged" (n - (n / 2)) count0

let test_kl_improves_over_random () =
  let h = random_instance 74 in
  let start = Bp.random (Rng.create 75) h in
  let init = Bp.side_array start in
  let r = Kl.run ~init (Rng.create 76) h in
  check Alcotest.bool "no worse than start" true (r.Kl.cut <= Bp.cut start)

let test_kl_finds_clique_split () =
  let h = two_cliques () in
  let best = ref max_int in
  for seed = 1 to 5 do
    let r = Kl.run (Rng.create seed) h in
    best := Stdlib.min !best r.Kl.cut
  done;
  check Alcotest.bool "near-optimal" true (!best <= 3)

(* ---- metamorphic net-weight property ---- *)

let prop_duplicate_net_equals_weight =
  (* A netlist with net e duplicated is cut-equivalent to one where e has
     weight 2, for every side assignment — ties weights, induce and the cut
     accounting together. *)
  QCheck.Test.make ~name:"duplicated net == doubled weight" ~count:40
    QCheck.(pair small_int small_int)
    (fun (seed, which) ->
      let h = random_instance ~modules:40 seed in
      let e = which mod H.num_nets h in
      let nets_dup = ref [] and nets_weighted = ref [] in
      for i = H.num_nets h - 1 downto 0 do
        let pins = H.pins_of h i and w = H.net_weight h i in
        if i = e then begin
          nets_dup := (pins, w) :: (Array.copy pins, w) :: !nets_dup;
          nets_weighted := (pins, 2 * w) :: !nets_weighted
        end
        else begin
          nets_dup := (pins, w) :: !nets_dup;
          nets_weighted := (pins, w) :: !nets_weighted
        end
      done;
      let areas = Array.init (H.num_modules h) (H.area h) in
      let dup = H.make ~areas ~nets:(Array.of_list !nets_dup) () in
      let weighted = H.make ~areas ~nets:(Array.of_list !nets_weighted) () in
      let side =
        Array.init (H.num_modules h) (fun v -> (v + seed) land 1)
      in
      Fm.cut_of dup side = Fm.cut_of weighted side)

(* ---- LSMC ---- *)

let test_lsmc_valid () =
  let h = random_instance 40 in
  let r = Lsmc.run ~config:{ Lsmc.default with descents = 5 } (Rng.create 41) h in
  check Alcotest.int "lsmc cut consistent" (Fm.cut_of h r.Lsmc.side) r.Lsmc.cut;
  check Alcotest.bool "balanced" true (balanced h r.Lsmc.side)

let test_lsmc_no_worse_than_first_descent () =
  let h = random_instance 42 in
  (* LSMC's first descent is exactly Fm.run with the same rng stream;
     additional descents can only keep or improve the best. *)
  let lsmc =
    Lsmc.run ~config:{ Lsmc.default with descents = 8 } (Rng.create 43) h
  in
  let first = Fm.run (Rng.create 43) h in
  check Alcotest.bool "monotone improvement" true (lsmc.Lsmc.cut <= first.Fm.cut)

let test_lsmc_single_descent_equals_fm () =
  let h = random_instance 44 in
  let lsmc =
    Lsmc.run ~config:{ Lsmc.default with descents = 1 } (Rng.create 45) h
  in
  let fm = Fm.run (Rng.create 45) h in
  check Alcotest.int "one descent = one FM run" fm.Fm.cut lsmc.Lsmc.cut

(* ---- engine coverage on the known two-cliques instance ---- *)

(* Seeded with the optimal split (cut 1, only the bridge net): no engine
   may lose it, and each must honour its balance contract — weighted-area
   bounds for LSMC and Genetic, exact side populations for KL (pair swaps
   preserve counts, not areas). *)
let test_engines_preserve_two_cliques_optimum () =
  let h = two_cliques () in
  let init = Array.init 16 (fun v -> if v < 8 then 0 else 1) in
  let kl = Kl.run ~init (Rng.create 91) h in
  check Alcotest.int "kl cut consistent" (Fm.cut_of h kl.Kl.side) kl.Kl.cut;
  check Alcotest.int "kl preserves the optimum" 1 kl.Kl.cut;
  check Alcotest.int "kl side sizes unchanged" 8
    (Array.fold_left (fun acc s -> acc + (1 - s)) 0 kl.Kl.side);
  let lsmc =
    Lsmc.run ~init ~config:{ Lsmc.default with descents = 4 } (Rng.create 92) h
  in
  check Alcotest.int "lsmc cut consistent" (Fm.cut_of h lsmc.Lsmc.side)
    lsmc.Lsmc.cut;
  check Alcotest.int "lsmc preserves the optimum" 1 lsmc.Lsmc.cut;
  check Alcotest.bool "lsmc balanced" true (balanced h lsmc.Lsmc.side);
  let ga = Genetic.run ~init (Rng.create 93) h in
  check Alcotest.int "genetic cut consistent" (Fm.cut_of h ga.Genetic.side)
    ga.Genetic.cut;
  check Alcotest.int "genetic preserves the optimum" 1 ga.Genetic.cut;
  check Alcotest.bool "genetic balanced" true (balanced h ga.Genetic.side)

let test_engines_improve_bad_two_cliques_split () =
  (* the alternating start cuts 16 edges inside each clique; every engine
     must improve on it, not merely preserve it *)
  let h = two_cliques () in
  let init = Array.init 16 (fun v -> v land 1) in
  let start = Fm.cut_of h init in
  let kl = Kl.run ~init (Rng.create 94) h in
  check Alcotest.bool "kl improves" true (kl.Kl.cut < start);
  check Alcotest.int "kl side sizes unchanged" 8
    (Array.fold_left (fun acc s -> acc + (1 - s)) 0 kl.Kl.side);
  let lsmc =
    Lsmc.run ~init ~config:{ Lsmc.default with descents = 4 } (Rng.create 95) h
  in
  check Alcotest.bool "lsmc improves" true (lsmc.Lsmc.cut < start);
  check Alcotest.bool "lsmc balanced" true (balanced h lsmc.Lsmc.side);
  let ga = Genetic.run ~init (Rng.create 96) h in
  check Alcotest.bool "genetic improves" true (ga.Genetic.cut < start);
  check Alcotest.bool "genetic balanced" true (balanced h ga.Genetic.side)

let () =
  Alcotest.run "fm-engines"
    [
      ( "fm",
        [
          Alcotest.test_case "finds clique split" `Quick test_fm_finds_clique_split;
          Alcotest.test_case "result consistent" `Quick test_fm_result_consistent;
          Alcotest.test_case "refinement never worsens" `Quick
            test_fm_improves_on_refinement;
          Alcotest.test_case "refines good init" `Quick test_fm_refines_good_init;
          Alcotest.test_case "max passes" `Quick test_fm_max_passes;
          Alcotest.test_case "all policies valid" `Quick test_fm_policies_all_valid;
          Alcotest.test_case "deterministic" `Quick test_fm_deterministic;
          Alcotest.test_case "large nets counted" `Quick
            test_fm_net_threshold_cut_counted;
          Alcotest.test_case "unbalanced init repaired" `Quick
            test_fm_unbalanced_init_repaired;
          Alcotest.test_case "tiny instance" `Quick test_fm_tiny_instance;
          Alcotest.test_case "fixed pinned" `Quick test_fm_fixed_modules_pinned;
          Alcotest.test_case "fixed overrides init" `Quick
            test_fm_fixed_overrides_init;
          Alcotest.test_case "fixed with clip+cdip" `Quick
            test_fm_fixed_with_clip_and_backtrack;
          qtest prop_fm_all_configs_consistent;
          qtest prop_fm_weighted_nets;
        ] );
      ( "variants",
        [
          Alcotest.test_case "clip" `Quick test_clip_valid;
          Alcotest.test_case "lookahead" `Quick test_lookahead_valid;
          Alcotest.test_case "cdip" `Quick test_cdip_valid;
          Alcotest.test_case "early exit" `Quick test_early_exit_valid;
          Alcotest.test_case "boundary" `Quick test_boundary_valid;
          Alcotest.test_case "boundary refines" `Quick
            test_boundary_refines_good_init;
          Alcotest.test_case "wide balance" `Quick test_wide_balance_valid;
        ] );
      ( "refine-core",
        [
          Alcotest.test_case "best prefix" `Quick test_refine_core_best_prefix;
          Alcotest.test_case "all negative" `Quick test_refine_core_all_negative;
          Alcotest.test_case "early exit" `Quick test_refine_core_early_exit;
          Alcotest.test_case "backtrack" `Quick test_refine_core_backtrack;
          Alcotest.test_case "zero backtrack limit" `Quick
            test_refine_core_backtrack_limit;
          Alcotest.test_case "drive" `Quick test_refine_core_drive;
        ] );
      ( "engine-regression",
        [
          Alcotest.test_case "pre-overhaul golden values" `Quick
            test_engine_golden;
          Alcotest.test_case "pass cut monotone" `Quick test_pass_cut_monotone;
          Alcotest.test_case "zero backtrack limit = plain" `Quick
            test_cdip_zero_limit_is_plain;
          Alcotest.test_case "fixed stay out of frontier" `Quick
            test_boundary_fixed_stay_out;
          qtest prop_arena_reuse_bit_identical;
          Alcotest.test_case "pool jobs identical" `Quick
            test_arena_pool_jobs_identical;
        ] );
      ( "objective",
        [
          Alcotest.test_case "report" `Quick test_objective_report;
          Alcotest.test_case "rejects bad" `Quick test_objective_rejects_bad;
          Alcotest.test_case "assignment roundtrip" `Quick
            test_objective_assignment_roundtrip;
          Alcotest.test_case "read rejects garbage" `Quick
            test_objective_read_rejects_garbage;
        ] );
      ( "prop",
        [
          Alcotest.test_case "valid" `Quick test_prop_valid;
          Alcotest.test_case "clip variant" `Quick test_prop_clip_valid;
          Alcotest.test_case "finds clique split" `Quick
            test_prop_finds_clique_split;
          Alcotest.test_case "fm-like limit" `Quick test_prop_limit_is_fm_like;
          Alcotest.test_case "max passes" `Quick test_prop_max_passes;
          qtest prop_prop_consistent;
        ] );
      ( "genetic",
        [
          Alcotest.test_case "valid" `Quick test_genetic_valid;
          Alcotest.test_case "no worse than FM" `Slow
            test_genetic_no_worse_than_population_best;
          Alcotest.test_case "seeded init" `Quick test_genetic_seeded_init;
          Alcotest.test_case "rejects tiny population" `Quick
            test_genetic_rejects_tiny_population;
        ] );
      ( "kl",
        [
          Alcotest.test_case "valid" `Quick test_kl_valid;
          Alcotest.test_case "exact balance" `Quick test_kl_preserves_exact_balance;
          Alcotest.test_case "improves over random" `Quick
            test_kl_improves_over_random;
          Alcotest.test_case "finds clique split" `Quick test_kl_finds_clique_split;
          qtest prop_duplicate_net_equals_weight;
        ] );
      ( "lsmc",
        [
          Alcotest.test_case "valid" `Quick test_lsmc_valid;
          Alcotest.test_case "monotone" `Quick test_lsmc_no_worse_than_first_descent;
          Alcotest.test_case "single descent = FM" `Quick
            test_lsmc_single_descent_equals_fm;
        ] );
      ( "engine-coverage",
        [
          Alcotest.test_case "preserve two-cliques optimum" `Quick
            test_engines_preserve_two_cliques_optimum;
          Alcotest.test_case "improve bad two-cliques split" `Quick
            test_engines_improve_bad_two_cliques_split;
        ] );
    ]
