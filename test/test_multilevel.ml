(* Tests for the multilevel machinery: Match coarsening, projection, the ML
   driver and multilevel quadrisection. *)

module H = Mlpart_hypergraph.Hypergraph
module Match = Mlpart_multilevel.Match
module Ml = Mlpart_multilevel.Ml
module Hierarchy = Mlpart_multilevel.Hierarchy
module Mlw = Mlpart_multilevel.Ml_multiway
module Fm = Mlpart_partition.Fm
module Bp = Mlpart_partition.Bipartition
module Rng = Mlpart_util.Rng
module Pool = Mlpart_util.Pool

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let random_instance ?(modules = 200) seed =
  let rng = Rng.create seed in
  Mlpart_gen.Generate.rent ~rng ~modules ~nets:(modules * 5 / 4)
    ~pins:(7 * modules / 2) ()

(* ---- Match ---- *)

let check_valid_clustering h (cluster_of, k) =
  check Alcotest.int "length" (H.num_modules h) (Array.length cluster_of);
  let sizes = Array.make k 0 in
  Array.iter
    (fun c ->
      if c < 0 || c >= k then Alcotest.failf "cluster id %d out of range" c;
      sizes.(c) <- sizes.(c) + 1)
    cluster_of;
  Array.iteri
    (fun c s ->
      if s = 0 then Alcotest.failf "cluster %d empty" c;
      if s > 2 then Alcotest.failf "cluster %d has %d members (matching!)" c s)
    sizes;
  sizes

let test_match_full_ratio () =
  let h = random_instance 1 in
  let result = Match.run (Rng.create 2) h ~ratio:1.0 in
  let sizes = check_valid_clustering h result in
  let pairs = Array.fold_left (fun acc s -> if s = 2 then acc + 1 else acc) 0 sizes in
  (* a connected instance should pair up the vast majority of modules *)
  check Alcotest.bool "mostly pairs" true
    (2 * pairs > (4 * H.num_modules h) / 5)

let test_match_half_ratio () =
  let h = random_instance 3 in
  let cluster_of, k = Match.run (Rng.create 4) h ~ratio:0.5 in
  let sizes = check_valid_clustering h (cluster_of, k) in
  let matched =
    Array.fold_left (fun acc s -> if s = 2 then acc + 2 else acc) 0 sizes
  in
  let n = H.num_modules h in
  (* stops promptly once the ratio is reached *)
  check Alcotest.bool "about half matched" true
    (matched >= n * 45 / 100 && matched <= n * 60 / 100)

let test_match_ratio_controls_reduction () =
  let h = random_instance 5 in
  let _, k_full = Match.run (Rng.create 6) h ~ratio:1.0 in
  let _, k_half = Match.run (Rng.create 6) h ~ratio:0.5 in
  check Alcotest.bool "slower coarsening keeps more clusters" true
    (k_half > k_full)

let test_match_rejects_bad_ratio () =
  let h = random_instance 7 in
  (match Match.run (Rng.create 1) h ~ratio:0.0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let test_match_matchable_exclusion () =
  let h = random_instance 8 in
  let excluded v = v < 10 in
  let cluster_of, k =
    Match.run ~matchable:(fun v -> not (excluded v)) (Rng.create 9) h ~ratio:1.0
  in
  (* excluded modules must be singletons *)
  let size = Array.make k 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) cluster_of;
  for v = 0 to 9 do
    check Alcotest.int "excluded module is singleton" 1 size.(cluster_of.(v))
  done

let test_match_ignores_large_nets () =
  (* one giant net only: nothing to match on *)
  let b = Mlpart_hypergraph.Builder.create () in
  Mlpart_hypergraph.Builder.add_modules b 20;
  Mlpart_hypergraph.Builder.add_net b (List.init 20 Fun.id);
  let h = Mlpart_hypergraph.Builder.build b in
  let _, k = Match.run ~max_net_size:10 (Rng.create 10) h ~ratio:1.0 in
  check Alcotest.int "all singletons" 20 k;
  let _, k' = Match.run ~max_net_size:25 (Rng.create 10) h ~ratio:1.0 in
  check Alcotest.bool "large net usable when allowed" true (k' < 20)

let test_match_prefers_strong_connection () =
  (* v0 shares a 2-pin net with v1 and only a 3-pin net with v2: conn to
     v1 is 1, to v2 is 1/2, so {v0,v1} must match. *)
  let h =
    H.make ~areas:[| 1; 1; 1; 1 |]
      ~nets:[| ([| 0; 1 |], 1); ([| 0; 2; 3 |], 1) |]
      ()
  in
  (* module 0 is visited first for some permutation; try several seeds and
     demand that whenever 0 and 1 are co-clustered the run had the choice *)
  let co01 = ref 0 and runs = 20 in
  for seed = 1 to runs do
    let cluster_of, _ = Match.run (Rng.create seed) h ~ratio:1.0 in
    if cluster_of.(0) = cluster_of.(1) then incr co01
  done;
  check Alcotest.bool "0-1 matched in the majority of runs" true
    (2 * !co01 > runs)

let test_match_area_preference () =
  (* equal net structure, but w has a huge area: conn prefers the light one *)
  let h =
    H.make ~areas:[| 1; 1; 50 |]
      ~nets:[| ([| 0; 1 |], 1); ([| 0; 2 |], 1) |]
      ()
  in
  let co01 = ref 0 and runs = 20 in
  for seed = 1 to runs do
    let cluster_of, _ = Match.run (Rng.create seed) h ~ratio:1.0 in
    if cluster_of.(0) = cluster_of.(1) then incr co01
  done;
  check Alcotest.bool "light neighbour preferred" true (2 * !co01 > runs)

let test_match_respects_area_cap () =
  (* pairing stops once the combined area would exceed the cap *)
  let h =
    H.make ~areas:[| 10; 10; 1; 1 |]
      ~nets:[| ([| 0; 1 |], 5); ([| 2; 3 |], 1); ([| 0; 2 |], 1) |]
      ()
  in
  for seed = 1 to 8 do
    let cluster_of, _ =
      Match.run ~max_cluster_area:12 (Rng.create seed) h ~ratio:1.0
    in
    check Alcotest.bool "heavy pair refused" true
      (cluster_of.(0) <> cluster_of.(1))
  done

let test_match_pair_ok_respected () =
  let h = random_instance 30 in
  let forbid v w = (v + w) mod 2 = 0 in
  let cluster_of, k =
    Match.run ~pair_ok:(fun v w -> not (forbid v w)) (Rng.create 31) h
      ~ratio:1.0
  in
  (* reconstruct pairs and check none is forbidden *)
  let members = Array.make k [] in
  Array.iteri (fun v c -> members.(c) <- v :: members.(c)) cluster_of;
  Array.iter
    (fun cluster ->
      match cluster with
      | [ v; w ] ->
          check Alcotest.bool "pair allowed" false (forbid v w)
      | [ _ ] | [] -> ()
      | _ -> Alcotest.fail "cluster larger than a pair")
    members

let prop_hierarchy_cluster_cap =
  QCheck.Test.make ~name:"hierarchy keeps cluster areas under the cap"
    ~count:20 QCheck.small_int (fun seed ->
      let h = random_instance ~modules:300 seed in
      let threshold = 20 in
      let hierarchy =
        Mlpart_multilevel.Hierarchy.build ~threshold ~ratio:1.0
          ~merge_duplicates:false ~max_levels:64 (Rng.create (seed + 1)) h
      in
      let cap = 4 * H.total_area h / threshold in
      let coarsest = hierarchy.Mlpart_multilevel.Hierarchy.coarsest in
      H.max_area coarsest <= Stdlib.max cap 2)

(* ---- Match against a reference ----

   [reference_match] is the closure-based form of Match: ratings through
   [iter_nets_of]/[iter_pins_of] with the same float expression and
   summation order, Seq-built active and candidate sets, a polymorphic
   [Array.sort] of the proposals, and one (partner, rating) tuple per
   rated module.  It runs sequentially (the pool only splits the rating
   sweep, whose values are pure).  [Match.run] must return exactly its
   answer, for every option and with or without a pool. *)

let reference_match ?(max_net_size = 10) ?(matchable = fun _ -> true)
    ?(pair_ok = fun _ _ -> true) ?(max_cluster_area = max_int) rng h ~ratio =
  let n = H.num_modules h in
  let perm = Rng.permutation rng n in
  let rank = Array.make n 0 in
  Array.iteri (fun i v -> rank.(v) <- i) perm;
  let mate = Array.make n (-1) in
  let target = ratio *. float_of_int n in
  let n_match = ref 0 in
  let conn = Array.make n 0.0 and nbrs = Array.make n 0 in
  let best_neighbour v =
    let n_nbrs = ref 0 in
    let inv_av = 1.0 /. float_of_int (H.area h v) in
    H.iter_nets_of h v (fun e ->
        let size = H.net_size h e in
        if size <= max_net_size then begin
          let contribution =
            float_of_int (H.net_weight h e) /. float_of_int (size - 1)
          in
          H.iter_pins_of h e (fun w ->
              if
                w <> v && mate.(w) < 0 && matchable w && pair_ok v w
                && H.area h v + H.area h w <= max_cluster_area
              then begin
                if conn.(w) = 0.0 then begin
                  nbrs.(!n_nbrs) <- w;
                  incr n_nbrs
                end;
                conn.(w) <-
                  conn.(w) +. (contribution *. inv_av /. float_of_int (H.area h w))
              end)
        end);
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
    (!best, !best_conn)
  in
  let active = ref (Array.of_seq (Seq.filter matchable (Seq.init n Fun.id))) in
  let prop = Array.make n (-1) in
  let rate = Array.make n 0.0 in
  let continue = ref (float_of_int !n_match < target && Array.length !active > 0) in
  while !continue do
    let act = !active in
    Array.iter
      (fun v ->
        let w, c = best_neighbour v in
        prop.(v) <- w;
        rate.(v) <- c)
      act;
    let cands = Array.of_seq (Seq.filter (fun v -> prop.(v) >= 0) (Array.to_seq act)) in
    Array.sort
      (fun a b ->
        if rate.(a) <> rate.(b) then compare rate.(b) rate.(a)
        else compare rank.(a) rank.(b))
      cands;
    let commits = ref 0 in
    Array.iter
      (fun v ->
        if float_of_int !n_match < target && mate.(v) < 0 then begin
          let w = prop.(v) in
          if mate.(w) < 0 then begin
            mate.(v) <- w;
            mate.(w) <- v;
            n_match := !n_match + 2;
            incr commits
          end
        end)
      cands;
    active :=
      Array.of_seq
        (Seq.filter (fun v -> mate.(v) < 0 && prop.(v) >= 0) (Array.to_seq act));
    continue :=
      !commits > 0 && float_of_int !n_match < target && Array.length !active > 0
  done;
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
  (cluster_of, !k)

(* Rent netlists with module areas 1..4 and net weights 1..3 (or unit),
   and the adversarial Hgen families. *)
let reference_instance rng =
  if Rng.int rng 4 = 0 then
    Mlpart_check.Hgen.build
      (Mlpart_check.Gen.root Mlpart_check.Hgen.instance ~size:14 rng)
  else begin
    let h = random_instance ~modules:(20 + Rng.int rng 280) (Rng.int rng 100_000) in
    if Rng.bool rng then h
    else
      let areas = Array.init (H.num_modules h) (fun _ -> 1 + Rng.int rng 4) in
      H.make ~areas
        ~nets:
          (Array.init (H.num_nets h) (fun e -> (H.pins_of h e, 1 + Rng.int rng 3)))
        ()
  end

let prop_match_equals_reference =
  (* Every level of a small hierarchy, so coarse netlists with merged
     areas and weights are covered too. *)
  QCheck.Test.make ~name:"match equals reference" ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 7000) in
      let h = ref (reference_instance rng) in
      let ratio = [| 0.33; 0.5; 1.0 |].(Rng.int rng 3) in
      let max_net_size = if Rng.bool rng then 3 else 10 in
      let max_cluster_area =
        if Rng.bool rng then None else Some (2 + Rng.int rng 10)
      in
      let mask_seed = Rng.int rng 1000 in
      let matchable =
        if Rng.bool rng then None
        else Some (fun v -> (v * 7919 + mask_seed) mod 5 <> 0)
      in
      let pair_ok =
        if Rng.bool rng then None
        else Some (fun v w -> (v + w + mask_seed) mod 3 <> 0)
      in
      let pooled = Rng.bool rng in
      let ok = ref true and level = ref 0 in
      while !ok && !level < 8 && H.num_modules !h > 2 do
        let run_seed = Rng.int rng 1_000_000 in
        let expected =
          reference_match ~max_net_size ?matchable ?pair_ok ?max_cluster_area
            (Rng.create run_seed) !h ~ratio
        in
        let actual =
          if pooled then
            Pool.with_pool ~jobs:2 (fun pool ->
                Match.run ~max_net_size ?matchable ?pair_ok ?max_cluster_area
                  ~pool (Rng.create run_seed) !h ~ratio)
          else
            Match.run ~max_net_size ?matchable ?pair_ok ?max_cluster_area
              (Rng.create run_seed) !h ~ratio
        in
        if actual <> expected then ok := false
        else begin
          let cluster_of, k = actual in
          if k >= H.num_modules !h then level := max_int
          else begin
            h := fst (H.induce !h cluster_of);
            incr level
          end
        end
      done;
      !ok)

(* ---- projection ---- *)

let test_project () =
  let cluster_of = [| 0; 0; 1; 2; 1 |] in
  let coarse_side = [| 1; 0; 1 |] in
  check Alcotest.(array int) "projection" [| 1; 1; 0; 1; 0 |]
    (Ml.project cluster_of coarse_side)

let prop_projection_preserves_cut =
  (* Definition 1 drops only internal-to-cluster nets, so the weighted cut
     of a coarse solution equals the cut of its projection. *)
  QCheck.Test.make ~name:"projection preserves cut" ~count:40 QCheck.small_int
    (fun seed ->
      let h = random_instance ~modules:80 seed in
      let rng = Rng.create (seed + 1) in
      let cluster_of, k = Match.run rng h ~ratio:1.0 in
      let coarse, _ = H.induce h cluster_of in
      let kp = Mlpart_partition.Kpartition.random rng coarse ~k:2 in
      let coarse_side = Mlpart_partition.Kpartition.side_array kp in
      let fine_side = Ml.project cluster_of coarse_side in
      ignore k;
      Fm.cut_of coarse coarse_side = Fm.cut_of h fine_side)

(* ---- coarsening hierarchy ---- *)

let test_coarsen_reaches_threshold () =
  let h = random_instance ~modules:400 1 in
  let config = { Ml.mlf with Ml.threshold = 35 } in
  let hierarchy = Ml.hierarchy ~config (Rng.create 2) h in
  check Alcotest.bool "several levels" true
    (List.length hierarchy.Hierarchy.levels >= 3);
  check Alcotest.bool "coarsest small" true
    (H.num_modules hierarchy.Hierarchy.coarsest <= 35)

let test_coarsen_depth_grows_as_ratio_drops () =
  let h = random_instance ~modules:400 3 in
  let depth ratio =
    let config = Ml.with_ratio Ml.mlf ratio in
    List.length (Ml.hierarchy ~config (Rng.create 4) h).Hierarchy.levels
  in
  check Alcotest.bool "R=0.33 deeper than R=1" true (depth 0.33 > depth 1.0)

let test_coarsen_small_input_no_levels () =
  let h = random_instance ~modules:20 5 in
  let hierarchy = Ml.hierarchy (Rng.create 6) h in
  check Alcotest.int "no coarsening below threshold" 0
    (List.length hierarchy.Hierarchy.levels);
  check Alcotest.int "coarsest is input" (H.num_modules h)
    (H.num_modules hierarchy.Hierarchy.coarsest)

(* ---- ML driver ---- *)

let test_ml_consistent_and_balanced () =
  let h = random_instance 7 in
  let r = Ml.run (Rng.create 8) h in
  check Alcotest.int "cut recount" (Fm.cut_of h r.Ml.side) r.Ml.cut;
  check Alcotest.bool "balanced" true
    (Bp.is_balanced (Bp.create h r.Ml.side) (Bp.bounds h));
  check Alcotest.bool "levels recorded" true (r.Ml.levels > 0)

let test_ml_beats_flat_fm_on_average () =
  let h = random_instance ~modules:400 9 in
  let rng = Rng.create 10 in
  let avg f =
    let total = ref 0 in
    for _ = 1 to 5 do
      total := !total + f (Rng.split rng)
    done;
    !total
  in
  let ml = avg (fun rng -> (Ml.run ~config:Ml.mlc rng h).Ml.cut) in
  let fm = avg (fun rng -> (Fm.run rng h).Fm.cut) in
  check Alcotest.bool "multilevel no worse than flat on average" true (ml <= fm)

let test_ml_deterministic () =
  let h = random_instance 11 in
  let a = Ml.run (Rng.create 12) h and b = Ml.run (Rng.create 12) h in
  check Alcotest.(array int) "same result" a.Ml.side b.Ml.side

let test_ml_merge_duplicates_variant () =
  let h = random_instance 13 in
  let config = { Ml.mlc with Ml.merge_duplicates = true } in
  let r = Ml.run ~config (Rng.create 14) h in
  check Alcotest.int "cut recount" (Fm.cut_of h r.Ml.side) r.Ml.cut

let test_ml_multi_start_no_worse () =
  let h = random_instance ~modules:300 22 in
  let one = Ml.run ~config:Ml.mlc (Rng.create 23) h in
  let multi =
    Ml.run ~config:{ Ml.mlc with Ml.coarsest_starts = 8 } (Rng.create 23) h
  in
  check Alcotest.int "cut recount" (Fm.cut_of h multi.Ml.side) multi.Ml.cut;
  (* not guaranteed pointwise, but at this size/seed extra starts never
     hurt the final cut *)
  check Alcotest.bool "multi-start competitive" true
    (multi.Ml.cut <= one.Ml.cut + 5)

let test_ml_finds_clique_split () =
  let b = Mlpart_hypergraph.Builder.create () in
  Mlpart_hypergraph.Builder.add_modules b 32;
  for v = 0 to 15 do
    for w = v + 1 to 15 do
      Mlpart_hypergraph.Builder.add_net b [ v; w ];
      Mlpart_hypergraph.Builder.add_net b [ v + 16; w + 16 ]
    done
  done;
  Mlpart_hypergraph.Builder.add_net b [ 0; 16 ];
  let h = Mlpart_hypergraph.Builder.build b in
  let config = { Ml.mlc with Ml.threshold = 8 } in
  let r = Ml.run ~config (Rng.create 15) h in
  check Alcotest.int "optimal cut" 1 r.Ml.cut

let prop_ml_consistent =
  QCheck.Test.make ~name:"ML consistent across ratios" ~count:20
    QCheck.(pair small_int (int_range 0 2))
    (fun (seed, ri) ->
      let ratio = List.nth [ 1.0; 0.5; 0.33 ] ri in
      let h = random_instance ~modules:150 seed in
      let r = Ml.run ~config:(Ml.with_ratio Ml.mlc ratio) (Rng.create (seed + 30)) h in
      r.Ml.cut = Fm.cut_of h r.Ml.side
      && Bp.is_balanced (Bp.create h r.Ml.side) (Bp.bounds h))

let test_vcycles_monotone () =
  let h = random_instance ~modules:300 24 in
  for seed = 30 to 33 do
    let single = Ml.run ~config:Ml.mlc (Rng.create seed) h in
    let cycled = Ml.run_vcycles ~config:Ml.mlc ~cycles:4 (Rng.create seed) h in
    check Alcotest.bool "cycles never lose" true (cycled.Ml.cut <= single.Ml.cut);
    check Alcotest.int "cut recount" (Fm.cut_of h cycled.Ml.side) cycled.Ml.cut
  done

let test_vcycles_one_equals_run () =
  let h = random_instance 25 in
  let a = Ml.run ~config:Ml.mlc (Rng.create 26) h in
  let b = Ml.run_vcycles ~config:Ml.mlc ~cycles:1 (Rng.create 26) h in
  check Alcotest.(array int) "identical" a.Ml.side b.Ml.side

(* [starts] independent Ml.run starts through the shared best-of-starts
   loop. *)
let ml_starts ?config ?pool ?deadline ~starts rng h =
  fst
    (Mlpart_util.Multistart.best ?pool ?deadline ~starts
       ~cut:(fun r -> r.Ml.cut)
       (fun rng -> Ml.run ?config rng h)
       rng)

let test_ml_run_starts_pool_identical () =
  (* pre-split generator streams + (cut, index) winner selection: the pool
     size must not change the outcome, even with multi-start enabled at the
     coarsest level too *)
  let h = random_instance ~modules:300 28 in
  let config = { Ml.mlc with Ml.coarsest_starts = 4 } in
  let seq = ml_starts ~config ~starts:6 (Rng.create 29) h in
  let par =
    Pool.with_pool ~jobs:4 (fun pool ->
        ml_starts ~config ~pool ~starts:6 (Rng.create 29) h)
  in
  check Alcotest.int "same cut" seq.Ml.cut par.Ml.cut;
  check Alcotest.(array int) "same side" seq.Ml.side par.Ml.side;
  check Alcotest.int "cut recount" (Fm.cut_of h par.Ml.side) par.Ml.cut

(* Jobs values for the intra-run determinism tests.  The CI matrix sets
   MLPART_TEST_JOBS so both the sequential schedule and a multi-domain
   schedule are exercised; the default covers 2 and 4 domains. *)
let intra_jobs_list () =
  match Sys.getenv_opt "MLPART_TEST_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j > 1 -> [ j ]
      | Some _ -> [ 2 ]
      | None -> [ 2; 4 ])
  | None -> [ 2; 4 ]

let test_ml_intra_run_pool_identical () =
  (* Intra-run parallelism (round-based matching, parallel induce, round
     pre-pass refinement) is bit-identical for any pool size: the round
     algorithms also run sequentially, so the schedule cannot leak into the
     output.  300 modules crosses rounds_min_modules = 128, so every
     parallel stage actually executes. *)
  let h = random_instance ~modules:300 44 in
  let seq = Ml.run ~config:Ml.mlc (Rng.create 45) h in
  List.iter
    (fun jobs ->
      let par =
        Pool.with_pool ~jobs (fun pool ->
            Ml.run ~config:Ml.mlc ~pool (Rng.create 45) h)
      in
      check Alcotest.int
        (Printf.sprintf "same cut at jobs=%d" jobs)
        seq.Ml.cut par.Ml.cut;
      check
        Alcotest.(array int)
        (Printf.sprintf "same side at jobs=%d" jobs)
        seq.Ml.side par.Ml.side;
      check Alcotest.int "cut recount" (Fm.cut_of h par.Ml.side) par.Ml.cut)
    (intra_jobs_list ())

let test_ml_run_starts_deadline () =
  let module Deadline = Mlpart_util.Deadline in
  let h = random_instance ~modules:200 31 in
  (* an already-expired deadline still completes the first start and returns
     its (valid) partition — never an empty or partial result *)
  let dl = Deadline.make ~seconds:0.0 in
  let timed = ml_starts ~deadline:dl ~starts:8 (Rng.create 32) h in
  let first = ml_starts ~starts:1 (Rng.create 32) h in
  check Alcotest.bool "deadline reported expired" true (Deadline.expired dl);
  check Alcotest.int "first start only" first.Ml.cut timed.Ml.cut;
  check Alcotest.(array int) "same side" first.Ml.side timed.Ml.side;
  check Alcotest.int "cut recount" (Fm.cut_of h timed.Ml.side) timed.Ml.cut;
  (* a generous deadline changes nothing: all starts complete *)
  let dl = Deadline.make ~seconds:3600.0 in
  let full = ml_starts ~deadline:dl ~starts:4 (Rng.create 32) h in
  let untimed = ml_starts ~starts:4 (Rng.create 32) h in
  check Alcotest.bool "not expired" false (Deadline.expired dl);
  check Alcotest.int "untimed cut" untimed.Ml.cut full.Ml.cut;
  check Alcotest.(array int) "untimed side" untimed.Ml.side full.Ml.side

(* Golden determinism: recorded cuts for a fixed seed.  Any change here
   means the seeded pipeline output changed — intentional algorithm edits
   must update the constants; accidental nondeterminism (or a pool-size
   dependence) fails loudly. *)
let test_golden_vcycles_cut () =
  let h = random_instance ~modules:200 90 in
  let r = Ml.run_vcycles ~config:Ml.mlc ~cycles:2 (Rng.create 91) h in
  check Alcotest.int "recorded 2-cycle cut" 23 r.Ml.cut;
  check Alcotest.int "cut recount" (Fm.cut_of h r.Ml.side) r.Ml.cut

let test_golden_run_starts_cut () =
  let h = random_instance ~modules:200 90 in
  let seq = ml_starts ~config:Ml.mlc ~starts:4 (Rng.create 92) h in
  check Alcotest.int "recorded 4-start cut" 23 seq.Ml.cut;
  check Alcotest.int "cut recount" (Fm.cut_of h seq.Ml.side) seq.Ml.cut;
  (* the same recorded value must hold through a domain pool *)
  let par =
    Pool.with_pool ~jobs:3 (fun pool ->
        ml_starts ~config:Ml.mlc ~pool ~starts:4 (Rng.create 92) h)
  in
  check Alcotest.int "pooled run matches the record" seq.Ml.cut par.Ml.cut;
  check Alcotest.(array int) "pooled side identical" seq.Ml.side par.Ml.side

let test_vcycles_rejects_zero () =
  let h = random_instance 27 in
  (match Ml.run_vcycles ~cycles:0 (Rng.create 1) h with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

(* ---- multilevel quadrisection ---- *)

let test_mlw_consistent () =
  let h = random_instance 16 in
  let r = Mlw.run (Rng.create 17) h ~k:4 in
  check Alcotest.int "cut recount"
    (Mlpart_partition.Multiway.cut_of h ~k:4 r.Mlw.side)
    r.Mlw.cut

let test_mlw_fixed_respected_through_levels () =
  let h = random_instance ~modules:300 18 in
  let fixed = Array.make (H.num_modules h) (-1) in
  List.iteri (fun i v -> fixed.(v) <- i mod 4) [ 0; 11; 22; 33; 44; 55; 66; 77 ];
  let r = Mlw.run ~fixed (Rng.create 19) h ~k:4 in
  Array.iteri
    (fun v p -> if p >= 0 then check Alcotest.int "pad pinned" p r.Mlw.side.(v))
    fixed

let test_mlw_beats_flat_on_average () =
  let h = random_instance ~modules:400 20 in
  let rng = Rng.create 21 in
  let avg f =
    let total = ref 0 in
    for _ = 1 to 3 do
      total := !total + f (Rng.split rng)
    done;
    !total
  in
  let ml = avg (fun rng -> (Mlw.run rng h ~k:4).Mlw.cut) in
  let flat =
    avg (fun rng -> (Mlpart_partition.Multiway.run rng h ~k:4).Mlpart_partition.Multiway.cut)
  in
  check Alcotest.bool "multilevel 4-way no worse" true (ml <= flat)

(* ---- recursive bisection ---- *)

module Rb = Mlpart_multilevel.Rb

let test_rb_consistent () =
  let h = random_instance 40 in
  let r = Rb.run (Rng.create 41) h ~k:4 in
  let report = Mlpart_partition.Objective.evaluate h r.Rb.side in
  check Alcotest.int "cut recount" report.Mlpart_partition.Objective.net_cut r.Rb.cut;
  check Alcotest.int "soed recount"
    report.Mlpart_partition.Objective.sum_degrees r.Rb.sum_degrees;
  check Alcotest.int "k parts used" 4 report.Mlpart_partition.Objective.parts;
  check Alcotest.int "bisections for k=4" 3 r.Rb.bisections

let test_rb_balanced_parts () =
  let h = random_instance ~modules:400 42 in
  let r = Rb.run (Rng.create 43) h ~k:4 in
  let report = Mlpart_partition.Objective.evaluate h r.Rb.side in
  let quarter = H.total_area h / 4 in
  Array.iter
    (fun a ->
      check Alcotest.bool "each part near a quarter" true
        (abs (a - quarter) <= (quarter / 3) + 2))
    report.Mlpart_partition.Objective.part_areas

let test_rb_rejects_non_power () =
  let h = random_instance 44 in
  (match Rb.run (Rng.create 1) h ~k:3 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let test_rb_k2_matches_ml () =
  let h = random_instance 45 in
  let rb = Rb.run (Rng.create 46) h ~k:2 in
  let ml = Ml.run ~config:Ml.mlc (Rng.create 46) h in
  check Alcotest.int "k=2 RB is one ML call" ml.Ml.cut rb.Rb.cut

let test_rb_intra_run_pool_identical () =
  (* the recursive driver threads the pool into every sub-bisection; the
     whole k-way labelling must be schedule-independent *)
  let h = random_instance ~modules:400 48 in
  let seq = Rb.run (Rng.create 49) h ~k:4 in
  List.iter
    (fun jobs ->
      let par =
        Pool.with_pool ~jobs (fun pool ->
            Rb.run ~pool (Rng.create 49) h ~k:4)
      in
      check Alcotest.int
        (Printf.sprintf "same cut at jobs=%d" jobs)
        seq.Rb.cut par.Rb.cut;
      check
        Alcotest.(array int)
        (Printf.sprintf "same side at jobs=%d" jobs)
        seq.Rb.side par.Rb.side)
    (intra_jobs_list ())

let test_rb_objective_tradeoff () =
  (* keeping cut nets optimises soed, dropping them optimises cut — weak
     inequality over a few seeds to stay robust *)
  let h = random_instance ~modules:400 47 in
  let total filter =
    let acc = ref 0 in
    for seed = 1 to 3 do
      let config = { Rb.default with Rb.keep_cut_nets = filter } in
      let r = Rb.run ~config (Rng.create seed) h ~k:4 in
      acc := !acc + r.Rb.sum_degrees
    done;
    !acc
  in
  check Alcotest.bool "keeping cut nets helps soed" true
    (total true <= total false + 2)

(* ---- direct k-way n-level engine ---- *)

module Nlevel = Mlpart_multilevel.Nlevel

let test_nlevel_consistent () =
  let h = random_instance ~modules:300 50 in
  List.iter
    (fun k ->
      let r = Nlevel.run (Rng.create 51) h ~k in
      let report = Mlpart_partition.Objective.evaluate h r.Nlevel.side in
      check Alcotest.int
        (Printf.sprintf "%d-way cut recount" k)
        report.Mlpart_partition.Objective.net_cut r.Nlevel.cut;
      check Alcotest.int
        (Printf.sprintf "%d parts used" k)
        k report.Mlpart_partition.Objective.parts;
      check Alcotest.bool "contracted down" true
        (r.Nlevel.contractions > H.num_modules h / 2))
    [ 2; 3; 4 ]

(* Golden determinism on a Table I stand-in: fixed instantiation seed,
   fixed engine seed.  Any change here means the one-pair-at-a-time
   pipeline (rating order, memento replay, gain-cache refinement) changed
   output — intentional edits must update the constants. *)
let balu () =
  Mlpart_gen.Suite.instantiate ~seed:5 (Mlpart_gen.Suite.find "balu")

let test_nlevel_golden_balu () =
  let h = balu () in
  List.iter
    (fun (k, recorded) ->
      let r = Nlevel.run (Rng.create 5) h ~k in
      check Alcotest.int
        (Printf.sprintf "recorded balu %d-way cut" k)
        recorded r.Nlevel.cut;
      check Alcotest.int "cut recount"
        (Mlpart_partition.Multiway.cut_of h ~k r.Nlevel.side)
        r.Nlevel.cut)
    [ (2, 69); (4, 161) ]

let test_nlevel_jobs_invariance () =
  (* the engine is strictly sequential: running it with live worker
     domains around (as the CLI does when --jobs > 1) must be bit-identical
     to the bare run *)
  let h = balu () in
  let seq = Nlevel.run (Rng.create 5) h ~k:4 in
  List.iter
    (fun jobs ->
      let par =
        Pool.with_pool ~jobs (fun _pool -> Nlevel.run (Rng.create 5) h ~k:4)
      in
      check Alcotest.int
        (Printf.sprintf "same cut at jobs=%d" jobs)
        seq.Nlevel.cut par.Nlevel.cut;
      check
        Alcotest.(array int)
        (Printf.sprintf "same side at jobs=%d" jobs)
        seq.Nlevel.side par.Nlevel.side)
    (intra_jobs_list ())

let test_nlevel_deterministic () =
  let h = random_instance ~modules:250 52 in
  let a = Nlevel.run (Rng.create 53) h ~k:3 in
  let b = Nlevel.run (Rng.create 53) h ~k:3 in
  check Alcotest.int "same cut" a.Nlevel.cut b.Nlevel.cut;
  check Alcotest.(array int) "same side" a.Nlevel.side b.Nlevel.side

let test_nlevel_trail_covers_input () =
  (* contraction must reach the threshold and the trail must account for
     every vanished module; replaying it restores every module and area *)
  let h = random_instance ~modules:200 54 in
  let hy = Nlevel.coarsen_only ~threshold:40 (Rng.create 55) h in
  let alive = Nlevel.num_alive hy in
  check Alcotest.bool "reached threshold" true (alive <= 40);
  check Alcotest.int "trail accounts for the rest"
    (H.num_modules h - alive)
    (Nlevel.trail_length hy);
  Nlevel.uncontract_all hy;
  check Alcotest.int "all alive" (H.num_modules h) (Nlevel.num_alive hy);
  for v = 0 to H.num_modules h - 1 do
    if Nlevel.module_area hy v <> H.area h v then
      Alcotest.failf "module %d area %d after replay, expected %d" v
        (Nlevel.module_area hy v) (H.area h v)
  done

(* Every part within [Kpartition.bounds]: neither the coarse drain nor the
   localized refinement promises it, so the engine repairs the balance
   after its polish when needed. *)
let nlevel_balanced h ~k ~tolerance side =
  let module Kp = Mlpart_partition.Kpartition in
  Kp.is_balanced (Kp.create h ~k side) (Kp.bounds ~tolerance h ~k)

let prop_nlevel_within_bounds =
  QCheck.Test.make ~name:"nlevel answers within bounds" ~count:60
    QCheck.(quad small_nat (int_range 60 200) (int_range 2 5) bool)
    (fun (seed, modules, k, tight) ->
      let h = random_instance ~modules seed in
      let tolerance = if tight then 0.02 else 0.1 in
      let r = Nlevel.run ~tolerance (Rng.create (seed + 1)) h ~k in
      nlevel_balanced h ~k ~tolerance r.Nlevel.side)

(* As [mlpart kpartition bench:primary2 -k 8 --seed S] runs it. *)
let test_nlevel_primary2_8way_bounds () =
  for seed = 1 to 5 do
    let h =
      Mlpart_gen.Suite.instantiate ~seed (Mlpart_gen.Suite.find "primary2")
    in
    let r = Nlevel.run (Rng.split (Rng.create seed)) h ~k:8 in
    if not (nlevel_balanced h ~k:8 ~tolerance:0.1 r.Nlevel.side) then
      Alcotest.failf "seed %d: parts outside the bounds" seed
  done

(* As [mlpart kpartition bench:primary2 -k 3 --seed 1] runs it, the run
   test/cli.t pins.  Each polish pass ends after a fruitless streak, so
   the move count pins the stop rule as well as the answer: run to the
   end, the passes committed 8,600 moves and the run 8,696. *)
let test_nlevel_primary2_polish_stop () =
  let h =
    Mlpart_gen.Suite.instantiate ~seed:1 (Mlpart_gen.Suite.find "primary2")
  in
  let r = Nlevel.run (Rng.split (Rng.create 1)) h ~k:3 in
  check Alcotest.int "cut" 525 r.Nlevel.cut;
  check Alcotest.int "moves" 2643 r.Nlevel.moves

let test_nlevel_rejects_bad_k () =
  let h = random_instance 56 in
  match Nlevel.run (Rng.create 1) h ~k:1 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* A 260-module Rent netlist plus nets of 205, 220 and 260 pins: deep
   contraction shrinks them, so the replay grows nets back past
   [Refine_core.net_threshold]. *)
let big_net_instance rng =
  let h = random_instance ~modules:260 (Rng.int rng 100_000) in
  let n = H.num_modules h in
  let big size =
    let perm = Array.init n Fun.id in
    Rng.shuffle_in_place rng perm;
    (Array.sub perm 0 size, 1 + Rng.int rng 3)
  in
  H.make ~areas:(Array.init n (H.area h))
    ~nets:
      (Array.append
         (Array.init (H.num_nets h) (fun e -> (H.pins_of h e, H.net_weight h e)))
         [| big 205; big 220; big 260 |])
    ()

(* The gain cache stays exact through uncontraction: contract as deep as
   the rating allows, put the coarse modules in random parts, and replay
   the trail one step at a time with a cache riding along.  After every
   step, each alive module's cached gain to every other part equals a
   sweep of its nets, the partition's pin counts, spans and cut equal a
   recount over the live pins, and the cut equals a recount of cut nets
   over the live pins. *)
let prop_nlevel_cache_through_uncontraction =
  QCheck.Test.make ~name:"cache exact through uncontraction" ~count:40
    QCheck.small_int (fun seed ->
      let module Gc = Mlpart_partition.Gain_cache in
      let module Kp = Mlpart_partition.Kpartition in
      let rng = Rng.create (seed + 9000) in
      let h =
        if seed mod 5 = 0 then big_net_instance rng else reference_instance rng
      in
      let n = H.num_modules h in
      let hy = Nlevel.coarsen_only ~threshold:2 (Rng.split rng) h in
      let k = 2 + Rng.int rng 4 in
      let members =
        Array.of_list (List.filter (Nlevel.is_alive hy) (List.init n Fun.id))
      in
      let side = Array.make n 0 in
      Array.iter (fun v -> side.(v) <- Rng.int rng k) members;
      let g = Nlevel.graph hy in
      let kp = Kp.of_graph g ~k ~members side in
      let cache = Gc.create kp in
      let live_cut () =
        let total = ref 0 in
        for e = 0 to Array.length g.Kp.net_size - 1 do
          let pins = g.Kp.net_pins.(e) in
          let first = Kp.side kp pins.(0) in
          let cut = ref false in
          for j = 1 to g.Kp.net_size.(e) - 1 do
            if Kp.side kp pins.(j) <> first then cut := true
          done;
          if !cut then total := !total + g.Kp.net_weight.(e)
        done;
        !total
      in
      let check_exact step =
        (match Mlpart_check.Laws.kpartition_recount kp with
        | Some msg -> QCheck.Test.fail_reportf "step %d: %s" step msg
        | None -> ());
        if Kp.cut kp <> live_cut () then
          QCheck.Test.fail_reportf "step %d: cached cut %d, live recount %d"
            step (Kp.cut kp) (live_cut ());
        for v = 0 to n - 1 do
          if Nlevel.is_alive hy v then
            for q = 0 to k - 1 do
              if q <> Kp.side kp v then begin
                let cached = Gc.gain cache v q
                and fresh = Gc.recompute_gain cache v q in
                if cached <> fresh then
                  QCheck.Test.fail_reportf
                    "step %d: gain(%d -> %d) cached %d, recomputed %d" step v q
                    cached fresh
              end
            done
        done
      in
      let step = ref 0 in
      check_exact 0;
      while Nlevel.uncontract_step ~cache hy do
        incr step;
        check_exact !step
      done;
      Nlevel.num_alive hy = n)

let () =
  Alcotest.run "multilevel"
    [
      ( "match",
        [
          Alcotest.test_case "full ratio" `Quick test_match_full_ratio;
          Alcotest.test_case "half ratio" `Quick test_match_half_ratio;
          Alcotest.test_case "ratio controls reduction" `Quick
            test_match_ratio_controls_reduction;
          Alcotest.test_case "rejects bad ratio" `Quick test_match_rejects_bad_ratio;
          Alcotest.test_case "matchable exclusion" `Quick
            test_match_matchable_exclusion;
          Alcotest.test_case "ignores large nets" `Quick
            test_match_ignores_large_nets;
          Alcotest.test_case "prefers strong connection" `Quick
            test_match_prefers_strong_connection;
          Alcotest.test_case "area preference" `Quick test_match_area_preference;
          Alcotest.test_case "area cap" `Quick test_match_respects_area_cap;
          Alcotest.test_case "pair_ok" `Quick test_match_pair_ok_respected;
          qtest prop_hierarchy_cluster_cap;
          qtest prop_match_equals_reference;
        ] );
      ( "projection",
        [
          Alcotest.test_case "project" `Quick test_project;
          qtest prop_projection_preserves_cut;
        ] );
      ( "coarsen",
        [
          Alcotest.test_case "reaches threshold" `Quick
            test_coarsen_reaches_threshold;
          Alcotest.test_case "depth grows as R drops" `Quick
            test_coarsen_depth_grows_as_ratio_drops;
          Alcotest.test_case "small input" `Quick test_coarsen_small_input_no_levels;
        ] );
      ( "ml",
        [
          Alcotest.test_case "consistent and balanced" `Quick
            test_ml_consistent_and_balanced;
          Alcotest.test_case "no worse than flat FM" `Slow
            test_ml_beats_flat_fm_on_average;
          Alcotest.test_case "deterministic" `Quick test_ml_deterministic;
          Alcotest.test_case "merge duplicates" `Quick
            test_ml_merge_duplicates_variant;
          Alcotest.test_case "multi-start coarsest" `Quick
            test_ml_multi_start_no_worse;
          Alcotest.test_case "finds clique split" `Quick test_ml_finds_clique_split;
          qtest prop_ml_consistent;
          Alcotest.test_case "vcycles monotone" `Slow test_vcycles_monotone;
          Alcotest.test_case "one vcycle = run" `Quick test_vcycles_one_equals_run;
          Alcotest.test_case "vcycles reject zero" `Quick test_vcycles_rejects_zero;
          Alcotest.test_case "golden vcycles cut" `Quick test_golden_vcycles_cut;
          Alcotest.test_case "golden run_starts cut" `Quick
            test_golden_run_starts_cut;
          Alcotest.test_case "run_starts pool identical" `Quick
            test_ml_run_starts_pool_identical;
          Alcotest.test_case "run_starts deadline" `Quick
            test_ml_run_starts_deadline;
          Alcotest.test_case "intra-run pool identical" `Quick
            test_ml_intra_run_pool_identical;
        ] );
      ( "rb",
        [
          Alcotest.test_case "consistent" `Quick test_rb_consistent;
          Alcotest.test_case "balanced parts" `Quick test_rb_balanced_parts;
          Alcotest.test_case "rejects non-power" `Quick test_rb_rejects_non_power;
          Alcotest.test_case "k=2 is ML" `Quick test_rb_k2_matches_ml;
          Alcotest.test_case "objective tradeoff" `Slow test_rb_objective_tradeoff;
          Alcotest.test_case "intra-run pool identical" `Quick
            test_rb_intra_run_pool_identical;
        ] );
      ( "ml_multiway",
        [
          Alcotest.test_case "consistent" `Quick test_mlw_consistent;
          Alcotest.test_case "fixed through levels" `Quick
            test_mlw_fixed_respected_through_levels;
          Alcotest.test_case "no worse than flat" `Slow test_mlw_beats_flat_on_average;
        ] );
      ( "nlevel",
        [
          Alcotest.test_case "consistent" `Quick test_nlevel_consistent;
          Alcotest.test_case "golden balu cuts" `Quick test_nlevel_golden_balu;
          Alcotest.test_case "jobs invariance" `Quick
            test_nlevel_jobs_invariance;
          Alcotest.test_case "deterministic" `Quick test_nlevel_deterministic;
          Alcotest.test_case "trail covers input" `Quick
            test_nlevel_trail_covers_input;
          Alcotest.test_case "rejects k < 2" `Quick test_nlevel_rejects_bad_k;
          qtest prop_nlevel_within_bounds;
          qtest prop_nlevel_cache_through_uncontraction;
          Alcotest.test_case "primary2 8-way within bounds" `Quick
            test_nlevel_primary2_8way_bounds;
          Alcotest.test_case "primary2 3-way polish moves" `Quick
            test_nlevel_primary2_polish_stop;
        ] );
    ]
