(* Tests for the analytical-placement substrate and the GORDIAN-style
   quadrisection baseline. *)

module H = Mlpart_hypergraph.Hypergraph
module Q = Mlpart_placement.Quadratic
module G = Mlpart_placement.Gordian
module Rng = Mlpart_util.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let close ?(eps = 1e-5) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f got %.6f" msg expected actual

(* ---- quadratic solver ---- *)

let path n =
  (* 0 - 1 - 2 - ... - (n-1) with 2-pin nets *)
  let b = Mlpart_hypergraph.Builder.create () in
  Mlpart_hypergraph.Builder.add_modules b n;
  for v = 0 to n - 2 do
    Mlpart_hypergraph.Builder.add_net b [ v; v + 1 ]
  done;
  Mlpart_hypergraph.Builder.build b

let test_path_interpolates () =
  (* Fixing the ends of a path at 0 and 1, the quadratic optimum spaces the
     free modules uniformly. *)
  let n = 5 in
  let h = path n in
  let sys = Q.build h ~fixed:[ (0, 0.0); (n - 1, 1.0) ] in
  let x = Q.solve sys in
  for v = 0 to n - 1 do
    close (Printf.sprintf "module %d" v)
      (float_of_int v /. float_of_int (n - 1))
      x.(v)
  done;
  check Alcotest.bool "residual tiny" true (Q.residual sys x < 1e-5)

let test_star_centroid () =
  (* A 3-pin net with two pinned modules: the free one sits at the mean
     under the clique model. *)
  let h = H.make ~areas:[| 1; 1; 1 |] ~nets:[| ([| 0; 1; 2 |], 1) |] () in
  let sys = Q.build h ~fixed:[ (0, 0.0); (1, 1.0) ] in
  let x = Q.solve sys in
  close "centroid" 0.5 x.(2)

let test_fixed_positions_kept () =
  let h = path 4 in
  let sys = Q.build h ~fixed:[ (0, 0.25); (3, 0.75) ] in
  let x = Q.solve sys in
  close "left pad" 0.25 x.(0);
  close "right pad" 0.75 x.(3)

let test_build_requires_fixed () =
  let h = path 3 in
  (match Q.build h ~fixed:[] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let test_chain_model_large_net () =
  (* Force the chain model with a tiny clique limit: still solvable, ends
     pinned, interior strictly between. *)
  let b = Mlpart_hypergraph.Builder.create () in
  Mlpart_hypergraph.Builder.add_modules b 6;
  Mlpart_hypergraph.Builder.add_net b [ 0; 1; 2; 3; 4; 5 ];
  let h = Mlpart_hypergraph.Builder.build b in
  let sys = Q.build ~clique_limit:3 h ~fixed:[ (0, 0.0); (5, 1.0) ] in
  let x = Q.solve sys in
  for v = 1 to 4 do
    check Alcotest.bool "interior inside" true (x.(v) > 0.0 && x.(v) < 1.0)
  done

let test_weighted_net_pulls_harder () =
  (* Free module connected to 0.0 with weight 3 and to 1.0 with weight 1:
     optimum at 1/4. *)
  let h =
    H.make ~areas:[| 1; 1; 1 |]
      ~nets:[| ([| 0; 2 |], 3); ([| 1; 2 |], 1) |]
      ()
  in
  let sys = Q.build h ~fixed:[ (0, 0.0); (1, 1.0) ] in
  let x = Q.solve sys in
  close "weighted balance point" 0.25 x.(2)

let test_hpwl () =
  let h = H.make ~areas:[| 1; 1; 1 |] ~nets:[| ([| 0; 1; 2 |], 2) |] () in
  let x = [| 0.0; 1.0; 0.5 |] and y = [| 0.0; 0.0; 2.0 |] in
  close "hpwl" (2.0 *. (1.0 +. 2.0)) (Q.hpwl h ~x ~y)

let prop_cg_residual_small =
  QCheck.Test.make ~name:"CG residual below tolerance on random instances"
    ~count:25 QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let h = Mlpart_gen.Generate.rent ~rng ~modules:60 ~nets:80 ~pins:240 () in
      let fixed = [ (0, 0.0); (1, 1.0); (2, 0.3) ] in
      let sys = Q.build h ~fixed in
      let x = Q.solve ~tol:1e-8 sys in
      Q.residual sys x < 1e-5)

let prop_solution_within_pad_hull =
  QCheck.Test.make ~name:"free coordinates stay within the pad hull" ~count:25
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let h = Mlpart_gen.Generate.rent ~rng ~modules:50 ~nets:70 ~pins:200 () in
      let sys = Q.build h ~fixed:[ (0, 0.0); (1, 1.0) ] in
      let x = Q.solve sys in
      (* the exact optimum obeys the maximum principle; CG's finite
         tolerance can overshoot by the solver's own epsilon *)
      Array.for_all (fun v -> v >= -1e-6 && v <= 1.0 +. 1e-6) x)

(* ---- GORDIAN ---- *)

let gordian_instance seed =
  let rng = Rng.create seed in
  Mlpart_gen.Generate.rent ~rng ~modules:300 ~nets:360 ~pins:1100 ()

let test_gordian_quadrants_balanced () =
  let h = gordian_instance 1 in
  let r = G.run h in
  let areas = Array.make 4 0 in
  Array.iteri (fun v q -> areas.(q) <- areas.(q) + H.area h v) r.G.side;
  let total = H.total_area h in
  Array.iter
    (fun a ->
      check Alcotest.bool "quadrant within 10% of quarter" true
        (abs (a - (total / 4)) <= (total / 10) + 1))
    areas

let test_gordian_cut_consistent () =
  let h = gordian_instance 2 in
  let r = G.run h in
  check Alcotest.int "cut recount"
    (Mlpart_partition.Multiway.cut_of h ~k:4 r.G.side)
    r.G.cut

let test_gordian_deterministic () =
  let h = gordian_instance 3 in
  let a = G.run h and b = G.run h in
  check Alcotest.(array int) "same quadrants" a.G.side b.G.side;
  close "same hpwl" a.G.hpwl b.G.hpwl

let test_gordian_pads_on_boundary () =
  let h = gordian_instance 4 in
  let r = G.run h in
  Array.iter
    (fun pad ->
      let x = r.G.x.(pad) and y = r.G.y.(pad) in
      let on_edge v = abs_float v < 1e-9 || abs_float (v -. 1.0) < 1e-9 in
      check Alcotest.bool "pad on die boundary" true (on_edge x || on_edge y))
    r.G.pads

let test_gordian_pad_count_option () =
  let h = gordian_instance 5 in
  let r = G.run ~config:{ G.num_pads = Some 7 } h in
  check Alcotest.int "pad count honoured" 7 (Array.length r.G.pads)

let test_gordian_beaten_by_ml () =
  (* The paper's Table IX claim: ML quadrisection beats the analytic
     splits.  Statistical, but stable at this size/seed. *)
  let h = gordian_instance 6 in
  let g = G.run h in
  let best_ml = ref max_int in
  for seed = 1 to 3 do
    let r = Mlpart_multilevel.Ml_multiway.run (Rng.create seed) h ~k:4 in
    best_ml := Stdlib.min !best_ml r.Mlpart_multilevel.Ml_multiway.cut
  done;
  check Alcotest.bool "ML at least as good as GORDIAN" true (!best_ml <= g.G.cut)

let test_quadrants_of_placement_median () =
  (* 4 modules on a unit square map to the 4 quadrants. *)
  let h = path 4 in
  let x = [| 0.0; 0.0; 1.0; 1.0 |] and y = [| 0.0; 1.0; 0.0; 1.0 |] in
  let q = G.quadrants_of_placement h ~x ~y in
  check Alcotest.(array int) "quadrant ids" [| 0; 1; 2; 3 |] q

(* ---- Spectral ---- *)

module Sp = Mlpart_placement.Spectral

let test_spectral_valid () =
  let h = gordian_instance 10 in
  let r = Sp.run h in
  check Alcotest.int "cut recount"
    (Mlpart_partition.Fm.cut_of h r.Sp.side)
    r.Sp.cut;
  check Alcotest.bool "iterations used" true (r.Sp.iterations_used > 0);
  check Alcotest.bool "fiedler unit norm" true
    (let n = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 r.Sp.fiedler in
     abs_float (n -. 1.0) < 1e-6)

let test_spectral_deterministic () =
  let h = gordian_instance 11 in
  let a = Sp.run h and b = Sp.run h in
  check Alcotest.(array int) "same split" a.Sp.side b.Sp.side

let test_spectral_separates_cliques () =
  (* two cliques with a bridge: the Fiedler vector must separate them *)
  let b = Mlpart_hypergraph.Builder.create () in
  Mlpart_hypergraph.Builder.add_modules b 16;
  for v = 0 to 7 do
    for w = v + 1 to 7 do
      Mlpart_hypergraph.Builder.add_net b [ v; w ];
      Mlpart_hypergraph.Builder.add_net b [ v + 8; w + 8 ]
    done
  done;
  Mlpart_hypergraph.Builder.add_net b [ 0; 8 ];
  let h = Mlpart_hypergraph.Builder.build b in
  let r = Sp.run h in
  check Alcotest.int "bridge only" 1 r.Sp.cut

let test_spectral_refined_no_worse () =
  let h = gordian_instance 12 in
  let pure = Sp.run h in
  let module Algos = Mlpart_experiments.Algos in
  let _, refined = Algos.eig_fm.Algos.run ~tolerance:0.1 (Rng.create 1) h ~k:2 in
  check Alcotest.bool "FM refinement helps" true (refined <= pure.Sp.cut)

let test_spectral_balanced_split () =
  let h = gordian_instance 13 in
  let r = Sp.run h in
  let areas = [| 0; 0 |] in
  Array.iteri (fun v s -> areas.(s) <- areas.(s) + H.area h v) r.Sp.side;
  let total = H.total_area h in
  check Alcotest.bool "median split within 2%" true
    (abs (areas.(0) - (total / 2)) <= (total / 50) + 1)

(* ---- Topdown ---- *)

module T = Mlpart_placement.Topdown

let test_topdown_places_everything () =
  let h = gordian_instance 14 in
  let r = T.run (Rng.create 1) h in
  let n = H.num_modules h in
  check Alcotest.int "x for every module" n (Array.length r.T.x);
  for v = 0 to n - 1 do
    if r.T.x.(v) < 0.0 || r.T.x.(v) > 1.0 || r.T.y.(v) < 0.0 || r.T.y.(v) > 1.0
    then Alcotest.failf "module %d outside the die" v
  done;
  check Alcotest.bool "recursed" true (r.T.regions > 0);
  check Alcotest.bool "hpwl positive" true (r.T.hpwl > 0.0)

let test_topdown_spreads_cells () =
  (* no more than a leaf-full of modules may share a position *)
  let h = gordian_instance 15 in
  let config = { T.default with T.leaf_size = 8 } in
  let r = T.run ~config (Rng.create 2) h in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun v _ ->
      let key = (r.T.x.(v), r.T.y.(v)) in
      Hashtbl.replace seen key (1 + Option.value ~default:0 (Hashtbl.find_opt seen key)))
    r.T.x;
  Hashtbl.iter
    (fun _ c ->
      if c > 8 then Alcotest.failf "%d modules stacked on one slot" c)
    seen

let test_topdown_deadline_degrades_gracefully () =
  let module Deadline = Mlpart_util.Deadline in
  let h = gordian_instance 16 in
  let dl = Deadline.make ~seconds:0.0 in
  let r = T.run ~deadline:dl (Rng.create 3) h in
  check Alcotest.bool "flagged timed out" true r.T.timed_out;
  check Alcotest.int "no quadrisection ran" 0 r.T.regions;
  (* graceful degradation: every module still gets an in-die coordinate *)
  for v = 0 to H.num_modules h - 1 do
    if r.T.x.(v) < 0.0 || r.T.x.(v) > 1.0 || r.T.y.(v) < 0.0 || r.T.y.(v) > 1.0
    then Alcotest.failf "module %d outside the die after timeout" v
  done;
  (* a generous deadline is a no-op: identical to the untimed run *)
  let dl = Deadline.make ~seconds:3600.0 in
  let timed = T.run ~deadline:dl (Rng.create 4) h in
  let untimed = T.run (Rng.create 4) h in
  check Alcotest.bool "not timed out" false timed.T.timed_out;
  check Alcotest.(array (float 1e-9)) "same x" untimed.T.x timed.T.x;
  check Alcotest.(array (float 1e-9)) "same y" untimed.T.y timed.T.y

let test_topdown_terminal_propagation_helps () =
  let h = gordian_instance 16 in
  let with_tp = T.run (Rng.create 3) h in
  let without =
    T.run ~config:{ T.default with T.terminal_model = T.Ignore_external }
      (Rng.create 3) h
  in
  (* statistical but stable at this size: propagation should not lose *)
  check Alcotest.bool "propagation no worse" true
    (with_tp.T.hpwl <= without.T.hpwl *. 1.05)

let test_topdown_beats_legalized_gordian () =
  let h = gordian_instance 17 in
  let g = G.run h in
  let gx, gy = T.grid_legalize h ~x:g.G.x ~y:g.G.y in
  let g_hpwl = Q.hpwl h ~x:gx ~y:gy in
  let td = T.run (Rng.create 4) h in
  check Alcotest.bool "top-down at least as good" true (td.T.hpwl <= g_hpwl)

let test_grid_legalize_separates () =
  let h = gordian_instance 18 in
  let n = H.num_modules h in
  (* everything stacked at one point legalizes to distinct grid slots *)
  let x = Array.make n 0.5 and y = Array.make n 0.5 in
  let lx, ly = T.grid_legalize h ~x ~y in
  let seen = Hashtbl.create n in
  for v = 0 to n - 1 do
    let key = (lx.(v), ly.(v)) in
    if Hashtbl.mem seen key then Alcotest.failf "slot reused for %d" v;
    Hashtbl.add seen key ()
  done

let test_grid_legalize_preserves_order () =
  let h = Mlpart_gen.Generate.ring 9 in
  let x = Array.init 9 (fun v -> float_of_int v /. 10.0) in
  let y = Array.make 9 0.5 in
  let lx, _ = T.grid_legalize h ~x ~y in
  (* module 0 (leftmost) must stay in the leftmost column *)
  check Alcotest.bool "order kept" true (lx.(0) <= lx.(8))

(* ---- SVG ---- *)

let test_svg_renders () =
  let h = gordian_instance 20 in
  let r = G.run h in
  let svg = Mlpart_placement.Svg.render ~side:r.G.side h ~x:r.G.x ~y:r.G.y in
  check Alcotest.bool "has svg root" true
    (String.length svg > 100
    && String.sub svg 0 4 = "<svg"
    && String.length svg - 7 >= 0);
  (* one circle per module *)
  let circles = ref 0 in
  String.split_on_char '\n' svg
  |> List.iter (fun line ->
         if String.length line >= 7 && String.sub line 0 7 = "<circle" then
           incr circles);
  check Alcotest.int "one dot per module" (H.num_modules h) !circles

let test_svg_write () =
  let h = Mlpart_gen.Generate.ring 8 in
  let x = Array.init 8 (fun v -> float_of_int v /. 8.0) in
  let y = Array.make 8 0.5 in
  let path = Filename.temp_file "mlpart_svg" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mlpart_placement.Svg.write ~draw_nets:true path h ~x ~y;
      let contents = In_channel.with_open_text path In_channel.input_all in
      check Alcotest.bool "file written" true (String.length contents > 100))

let () =
  Alcotest.run "placement"
    [
      ( "quadratic",
        [
          Alcotest.test_case "path interpolates" `Quick test_path_interpolates;
          Alcotest.test_case "star centroid" `Quick test_star_centroid;
          Alcotest.test_case "fixed kept" `Quick test_fixed_positions_kept;
          Alcotest.test_case "requires fixed" `Quick test_build_requires_fixed;
          Alcotest.test_case "chain model" `Quick test_chain_model_large_net;
          Alcotest.test_case "weighted pull" `Quick test_weighted_net_pulls_harder;
          Alcotest.test_case "hpwl" `Quick test_hpwl;
          qtest prop_cg_residual_small;
          qtest prop_solution_within_pad_hull;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "valid" `Quick test_spectral_valid;
          Alcotest.test_case "deterministic" `Quick test_spectral_deterministic;
          Alcotest.test_case "separates cliques" `Quick
            test_spectral_separates_cliques;
          Alcotest.test_case "refined no worse" `Quick test_spectral_refined_no_worse;
          Alcotest.test_case "balanced split" `Quick test_spectral_balanced_split;
        ] );
      ( "topdown",
        [
          Alcotest.test_case "places everything" `Quick
            test_topdown_places_everything;
          Alcotest.test_case "spreads cells" `Quick test_topdown_spreads_cells;
          Alcotest.test_case "deadline degrades gracefully" `Quick
            test_topdown_deadline_degrades_gracefully;
          Alcotest.test_case "terminal propagation" `Slow
            test_topdown_terminal_propagation_helps;
          Alcotest.test_case "beats legalized gordian" `Slow
            test_topdown_beats_legalized_gordian;
          Alcotest.test_case "legalize separates" `Quick test_grid_legalize_separates;
          Alcotest.test_case "legalize preserves order" `Quick
            test_grid_legalize_preserves_order;
        ] );
      ( "svg",
        [
          Alcotest.test_case "renders" `Quick test_svg_renders;
          Alcotest.test_case "write" `Quick test_svg_write;
        ] );
      ( "gordian",
        [
          Alcotest.test_case "quadrants balanced" `Quick
            test_gordian_quadrants_balanced;
          Alcotest.test_case "cut consistent" `Quick test_gordian_cut_consistent;
          Alcotest.test_case "deterministic" `Quick test_gordian_deterministic;
          Alcotest.test_case "pads on boundary" `Quick test_gordian_pads_on_boundary;
          Alcotest.test_case "pad count option" `Quick test_gordian_pad_count_option;
          Alcotest.test_case "beaten by ML" `Slow test_gordian_beaten_by_ml;
          Alcotest.test_case "median quadrants" `Quick
            test_quadrants_of_placement_median;
        ] );
    ]
