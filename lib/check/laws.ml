module H = Mlpart_hypergraph.Hypergraph
module Rng = Mlpart_util.Rng
module Bp = Mlpart_partition.Bipartition
module Fm = Mlpart_partition.Fm
module Objective = Mlpart_partition.Objective
module Match = Mlpart_multilevel.Match
module Ml = Mlpart_multilevel.Ml
module Rb = Mlpart_multilevel.Rb
module Nlevel = Mlpart_multilevel.Nlevel
module Gain_cache = Mlpart_partition.Gain_cache
module Pool = Mlpart_util.Pool
module Algos = Mlpart_experiments.Algos

open Property

let failf fmt = Printf.ksprintf (fun m -> Fail m) fmt

(* Every property consumes an instance spec plus a scalar seed driving all
   derived randomness (engine RNG, random sides, permutations), so the
   whole case replays from the (spec, seed) pair alone. *)
let seeded gen = Gen.pair gen (Gen.int_range 0 999_983)
let show_seeded (spec, seed) = Printf.sprintf "%s seed=%d" (Hgen.show spec) seed

let unconstrained h = { Bp.lo = 0; hi = H.total_area h }

let random_side rng n = Array.init n (fun _ -> Rng.int rng 2)

(* ---- oracle properties, one per registry entry ---- *)

(* Threshold 4 makes the multilevel entries coarsen through real levels
   even on these tiny instances. *)
let engines = Algos.all ~threshold:4 ()

(* Instance k: one the engine accepts whose k^n assignments fit the
   oracle's 2^18 budget (k = 2 always fits at <= 16 modules); drawn from
   [rng] only when there is a choice. *)
let draw_k engine rng n =
  match
    List.filter
      (fun k ->
        Algos.accepts engine k
        && (k = 2 || (k = 3 && n <= 11) || (k = 4 && n <= 9)))
      [ 2; 3; 4 ]
  with
  | [] -> None
  | [ k ] -> Some k
  | ks -> Some (List.nth ks (Rng.int rng (List.length ks)))

(* The enumerated optimum over the engine's feasible set: inside the
   paper's 2-way bounds when the engine promises them, unconstrained
   otherwise. *)
let optimum ?fixed (engine : Algos.t) h ~k =
  if k = 2 then
    Oracle.bipartition ?fixed
      ~bounds:(if engine.Algos.balanced then Bp.bounds h else unconstrained h)
      h
  else Oracle.kway ~k h

let unbalanced h side =
  let bounds = Bp.bounds h in
  let area0 = ref 0 in
  Array.iteri (fun v s -> if s = 0 then area0 := !area0 + H.area h v) side;
  if !area0 < bounds.Bp.lo || !area0 > bounds.Bp.hi then
    Some
      (Printf.sprintf "side-0 area %d outside balance bounds [%d, %d]" !area0
         bounds.Bp.lo bounds.Bp.hi)
  else None

let recount_mismatch h ~k side cut =
  let recount = (Objective.evaluate h side).Objective.net_cut in
  if cut <> recount then
    Some (Printf.sprintf "reported %d-way cut %d but recount is %d" k cut recount)
  else None

(* Reported cut must equal an [Objective] recount; a balanced engine must
   land inside the paper's bounds and then beat no feasible assignment;
   an unbounded engine is held to the unconstrained optimum. *)
let oracle_law (engine : Algos.t) (spec, seed) =
  let h = Hgen.build spec in
  let rng = Rng.create seed in
  match draw_k engine rng (H.num_modules h) with
  | None -> Skip
  | Some k -> (
      let side, cut = engine.Algos.run ~tolerance:0.1 rng h ~k in
      match recount_mismatch h ~k side cut with
      | Some msg -> Fail msg
      | None -> (
          match if engine.Algos.balanced then unbalanced h side else None with
          | Some msg -> Fail msg
          | None -> (
              match optimum engine h ~k with
              | None -> failf "engine returned a solution on an infeasible instance"
              | Some opt when cut < opt.Oracle.cut ->
                  failf "%d-way cut %d beats the enumerated optimum %d (impossible)"
                    k cut opt.Oracle.cut
              | Some _ -> Pass)))

(* Pinned modules must survive to the output — through every level of a
   multilevel run — and the optimum is taken over assignments honouring
   them. *)
let fixed_law (engine : Algos.t) (spec, seed) =
  let h = Hgen.build spec in
  let n = H.num_modules h in
  let rng = Rng.create seed in
  let fixed = Array.make n (-1) in
  let perm = Rng.permutation rng n in
  let count = Rng.int rng ((n / 3) + 1) in
  for i = 0 to count - 1 do
    fixed.(perm.(i)) <- i land 1
  done;
  match optimum ~fixed engine h ~k:2 with
  | None -> Skip
  | Some opt -> (
      let side, cut = engine.Algos.run ~fixed ~tolerance:0.1 rng h ~k:2 in
      let bad = ref None in
      Array.iteri
        (fun v f -> if f >= 0 && side.(v) <> f && !bad = None then bad := Some v)
        fixed;
      match !bad with
      | Some v ->
          failf "module %d was pinned to %d but ended on side %d" v fixed.(v)
            side.(v)
      | None -> (
          match recount_mismatch h ~k:2 side cut with
          | Some msg -> Fail msg
          | None when cut < opt.Oracle.cut ->
              failf "cut %d beats the pinned optimum %d" cut opt.Oracle.cut
          | None -> Pass))

let engine_property prefix law (engine : Algos.t) =
  Packed
    {
      name = prefix ^ engine.Algos.name;
      gen = seeded Hgen.instance;
      show = show_seeded;
      law = law engine;
    }

let oracle_properties =
  List.map (engine_property "oracle/" oracle_law) engines
  @ List.map (engine_property "fixed/" fixed_law)
      (List.filter (fun e -> e.Algos.fixed && Algos.accepts e 2) engines)

(* ---- metamorphic laws ---- *)

(* Relabeling modules and reordering nets must not change any metric. *)
let relabel =
  Packed
    {
      name = "laws/relabel";
      gen = seeded Hgen.instance;
      show = show_seeded;
      law =
        (fun (spec, seed) ->
          let h = Hgen.build spec in
          let n = H.num_modules h in
          let rng = Rng.create seed in
          let pi = Rng.permutation rng n in
          let areas' = Array.make n 0 in
          Array.iteri (fun v a -> areas'.(pi.(v)) <- a) spec.Hgen.areas;
          let nets' =
            Array.map
              (fun (pins, w) ->
                let pins = Array.map (fun p -> pi.(p)) pins in
                Array.sort Int.compare pins;
                (pins, w))
              spec.Hgen.nets
          in
          Rng.shuffle_in_place rng nets';
          let h' = H.make ~areas:areas' ~nets:nets' () in
          let side = random_side rng n in
          let side' = Array.make n 0 in
          Array.iteri (fun v s -> side'.(pi.(v)) <- s) side;
          let a = Objective.evaluate h side in
          let b = Objective.evaluate h' side' in
          if a.Objective.net_cut <> b.Objective.net_cut then
            failf "relabeled cut %d <> %d" b.Objective.net_cut a.Objective.net_cut
          else if a.Objective.sum_degrees <> b.Objective.sum_degrees then
            failf "relabeled soed %d <> %d" b.Objective.sum_degrees
              a.Objective.sum_degrees
          else if a.Objective.absorbed <> b.Objective.absorbed then
            failf "relabeled absorption %d <> %d" b.Objective.absorbed
              a.Objective.absorbed
          else if a.Objective.part_areas <> b.Objective.part_areas then
            failf "relabeled part areas differ"
          else Pass);
    }

(* Scaling every net weight by c scales every weighted metric — and the
   balanced optimum — by exactly c (areas are untouched, so the feasible
   set is identical). *)
let weight_scale =
  Packed
    {
      name = "laws/weight-scale";
      gen = Gen.pair (seeded Hgen.instance) (Gen.int_range 2 5);
      show =
        (fun (s, c) -> Printf.sprintf "%s scale=%d" (show_seeded s) c);
      law =
        (fun ((spec, seed), c) ->
          let h = Hgen.build spec in
          let n = H.num_modules h in
          let scaled =
            { spec with Hgen.nets = Array.map (fun (p, w) -> (p, w * c)) spec.Hgen.nets }
          in
          let h' = Hgen.build scaled in
          let rng = Rng.create seed in
          let side = random_side rng n in
          let a = Objective.evaluate h side in
          let b = Objective.evaluate h' side in
          if b.Objective.net_cut <> c * a.Objective.net_cut then
            failf "scaled cut %d <> %d * %d" b.Objective.net_cut c
              a.Objective.net_cut
          else if b.Objective.sum_degrees <> c * a.Objective.sum_degrees then
            failf "scaled soed %d <> %d * %d" b.Objective.sum_degrees c
              a.Objective.sum_degrees
          else if b.Objective.absorbed <> c * a.Objective.absorbed then
            failf "scaled absorption %d <> %d * %d" b.Objective.absorbed c
              a.Objective.absorbed
          else
            let bounds = Bp.bounds h in
            match (Oracle.bipartition ~bounds h, Oracle.bipartition ~bounds h') with
            | Some o, Some o' when o'.Oracle.cut <> c * o.Oracle.cut ->
                failf "scaled optimum %d <> %d * %d" o'.Oracle.cut c o.Oracle.cut
            | Some _, Some _ -> Pass
            | None, None -> Skip
            | _ -> failf "feasibility changed under weight scaling");
    }

(* Definition 1: merging duplicate nets into one net of summed weight is
   invisible to every weighted metric.  The identity clustering makes
   [induce ~merge_duplicates:true] perform exactly that merge. *)
let merge_duplicates =
  Packed
    {
      name = "laws/merge-duplicates";
      gen = seeded Hgen.instance;
      show = show_seeded;
      law =
        (fun (spec, seed) ->
          let h = Hgen.build spec in
          let n = H.num_modules h in
          let identity = Array.init n Fun.id in
          let h', k = H.induce ~merge_duplicates:true h identity in
          if k <> n then failf "identity clustering produced %d clusters" k
          else begin
            let side = random_side (Rng.create seed) n in
            let a = Objective.evaluate h side in
            let b = Objective.evaluate h' side in
            if a.Objective.net_cut <> b.Objective.net_cut then
              failf "merged cut %d <> %d" b.Objective.net_cut a.Objective.net_cut
            else if a.Objective.sum_degrees <> b.Objective.sum_degrees then
              failf "merged soed %d <> %d" b.Objective.sum_degrees
                a.Objective.sum_degrees
            else if a.Objective.absorbed <> b.Objective.absorbed then
              failf "merged absorption %d <> %d" b.Objective.absorbed
                a.Objective.absorbed
            else Pass
          end);
    }

(* A coarse assignment and its projection cut exactly the same nets
   (Definitions 1 and 2), with or without duplicate merging. *)
let coarsen_project =
  Packed
    {
      name = "laws/coarsen-project";
      gen = seeded Hgen.instance;
      show = show_seeded;
      law =
        (fun (spec, seed) ->
          let h = Hgen.build spec in
          let rng = Rng.create seed in
          let cluster_of, _ = Match.run rng h ~ratio:1.0 in
          let merge = Rng.bool rng in
          let coarse, k = H.induce ~merge_duplicates:merge h cluster_of in
          let coarse_side = random_side rng k in
          let fine_side = Ml.project cluster_of coarse_side in
          let coarse_cut = Fm.cut_of coarse coarse_side in
          let fine_cut = Fm.cut_of h fine_side in
          if coarse_cut <> fine_cut then
            failf "coarse cut %d <> projected fine cut %d (merge=%b)"
              coarse_cut fine_cut merge
          else Pass);
    }

(* V-cycles refine the solution of a plain run and may never lose. *)
let vcycle_monotone =
  Packed
    {
      name = "laws/vcycle-monotone";
      gen = seeded Hgen.instance;
      show = show_seeded;
      law =
        (fun (spec, seed) ->
          let h = Hgen.build spec in
          let config = { Ml.mlc with Ml.threshold = 4 } in
          let single = Ml.run ~config (Rng.create seed) h in
          let cycled = Ml.run_vcycles ~config ~cycles:2 (Rng.create seed) h in
          if cycled.Ml.cut > single.Ml.cut then
            failf "2 V-cycles worsened the cut: %d > %d" cycled.Ml.cut
              single.Ml.cut
          else if cycled.Ml.cut <> Fm.cut_of h cycled.Ml.side then
            failf "reported cut %d but recount is %d" cycled.Ml.cut
              (Fm.cut_of h cycled.Ml.side)
          else Pass);
    }

(* Intra-run parallelism is jobs-invariant: a full multilevel run (and a
   recursive bisection) on a pool of 4 domains returns the bit-identical
   partition and cut of the sequential run.  Threshold 4 forces a real
   hierarchy on the adversarial Hgen instances, and [rounds_min_modules = 0]
   forces the round-based refinement pre-pass at every level, so all three
   parallel stages (match rating, induce, rounds) are exercised. *)
let jobs_invariance =
  Packed
    {
      name = "laws/jobs-invariance";
      gen = seeded Hgen.instance;
      show = show_seeded;
      law =
        (fun (spec, seed) ->
          let h = Hgen.build spec in
          let config =
            { Ml.mlc with Ml.threshold = 4; Ml.rounds_min_modules = 0 }
          in
          let seq = Ml.run ~config (Rng.create seed) h in
          let rb_config = { Rb.default with Rb.ml = config } in
          let rb_seq = Rb.run ~config:rb_config (Rng.create seed) h ~k:2 in
          let check_jobs jobs =
            Pool.with_pool ~jobs (fun pool ->
                let par = Ml.run ~config ~pool (Rng.create seed) h in
                if par.Ml.cut <> seq.Ml.cut then
                  failf "jobs=%d cut %d <> sequential cut %d" jobs par.Ml.cut
                    seq.Ml.cut
                else if par.Ml.side <> seq.Ml.side then
                  failf "jobs=%d partition differs from sequential" jobs
                else begin
                  let rb_par =
                    Rb.run ~config:rb_config ~pool (Rng.create seed) h ~k:2
                  in
                  if rb_par.Rb.cut <> rb_seq.Rb.cut then
                    failf "jobs=%d rb cut %d <> sequential %d" jobs
                      rb_par.Rb.cut rb_seq.Rb.cut
                  else if rb_par.Rb.side <> rb_seq.Rb.side then
                    failf "jobs=%d rb partition differs from sequential" jobs
                  else Pass
                end)
          in
          match check_jobs 4 with Pass -> check_jobs 2 | other -> other);
    }

(* repair is total and idempotent: one pass fixes everything [validate]
   checks; a second pass is the identity. *)
let repair_idempotent =
  Packed
    {
      name = "laws/repair-idempotent";
      gen = Hgen.degenerate;
      show = Hgen.show;
      law =
        (fun spec ->
          let h = Hgen.build_unchecked spec in
          let h1, rep1 = H.repair h in
          match H.validate h1 with
          | Error diags ->
              failf "repair left %d violation(s)" (List.length diags)
          | Ok () ->
              let h2, rep2 = H.repair h1 in
              let zero r =
                r.H.dropped_nets = 0 && r.H.deduped_pins = 0
                && r.H.clamped_areas = 0 && r.H.clamped_weights = 0
              in
              let same_structure a b =
                H.num_modules a = H.num_modules b
                && H.num_nets a = H.num_nets b
                && H.num_pins a = H.num_pins b
                && Array.init (H.num_modules a) (H.area a)
                   = Array.init (H.num_modules b) (H.area b)
                && Array.init (H.num_nets a) (fun e ->
                       (H.net_weight a e, H.pins_of a e))
                   = Array.init (H.num_nets b) (fun e ->
                         (H.net_weight b e, H.pins_of b e))
              in
              if not (zero rep2) then failf "second repair still made changes"
              else if not (same_structure h1 h2) then
                failf "second repair changed the structure"
              else if H.validate h = Ok () && not (zero rep1) then
                failf "repair changed an already-valid hypergraph"
              else Pass);
    }

(* n-level contraction is losslessly invertible: contracting as deep as
   the rating allows and replaying the whole memento trail must restore a
   hypergraph structurally identical to the input — same module count,
   same areas, and the same pin set (as a sorted array) for every net in
   order.  Structural identity implies Laws-equivalence: every metric of
   every assignment is a function of exactly this data. *)
let memento_roundtrip =
  Packed
    {
      name = "laws/memento-roundtrip";
      gen = seeded Hgen.instance;
      show = show_seeded;
      law =
        (fun (spec, seed) ->
          let h = Hgen.build spec in
          let n = H.num_modules h in
          let hy = Nlevel.coarsen_only ~threshold:2 (Rng.create seed) h in
          let coarse = Nlevel.num_alive hy in
          if coarse + Nlevel.trail_length hy <> n then
            failf "trail length %d does not account for %d contracted modules"
              (Nlevel.trail_length hy) (n - coarse)
          else begin
            Nlevel.uncontract_all hy;
            if Nlevel.num_alive hy <> n then
              failf "uncontract_all left %d of %d modules alive"
                (Nlevel.num_alive hy) n
            else begin
              let bad = ref None in
              for v = n - 1 downto 0 do
                if not (Nlevel.is_alive hy v) then
                  bad := Some (Printf.sprintf "module %d still contracted" v)
                else if Nlevel.module_area hy v <> H.area h v then
                  bad :=
                    Some
                      (Printf.sprintf "module %d area %d, input had %d" v
                         (Nlevel.module_area hy v) (H.area h v))
              done;
              for e = H.num_nets h - 1 downto 0 do
                let pins = Nlevel.live_net_pins hy e in
                let orig = H.pins_of h e in
                Array.sort Int.compare orig;
                if pins <> orig then
                  bad := Some (Printf.sprintf "net %d pins differ" e)
              done;
              match !bad with Some msg -> Fail msg | None -> Pass
            end
          end);
    }

(* The k-way gain cache stays exact under arbitrary move sequences: after
   every move, every cached (module, target) gain equals a from-scratch
   recomputation, and the incremental cut matches both the cache's own
   recount and the reference [Objective] evaluation. *)
let gain_cache_consistent =
  Packed
    {
      name = "laws/gain-cache";
      gen = seeded Hgen.instance;
      show = show_seeded;
      law =
        (fun (spec, seed) ->
          let h = Hgen.build spec in
          let n = H.num_modules h in
          let rng = Rng.create seed in
          let k = 2 + Rng.int rng 3 in
          let g = Gain_cache.graph_of_hypergraph h in
          let side = Array.init n (fun _ -> Rng.int rng k) in
          let members = Array.init n Fun.id in
          let t = Gain_cache.create g ~k ~members side in
          let check_all () =
            let report = Objective.evaluate h (Gain_cache.side_array t) in
            if Gain_cache.cut t <> report.Objective.net_cut then
              failf "cached cut %d but reference recount is %d"
                (Gain_cache.cut t) report.Objective.net_cut
            else if Gain_cache.cut t <> Gain_cache.recompute_cut t then
              failf "cached cut %d but span recount is %d" (Gain_cache.cut t)
                (Gain_cache.recompute_cut t)
            else begin
              let bad = ref None in
              for v = 0 to n - 1 do
                for q = 0 to k - 1 do
                  if q <> Gain_cache.side t v && !bad = None then begin
                    let cached = Gain_cache.gain t v q in
                    let fresh = Gain_cache.recompute_gain t v q in
                    if cached <> fresh then
                      bad :=
                        Some
                          (Printf.sprintf
                             "gain(%d -> %d) cached %d, recomputed %d" v q
                             cached fresh)
                  end
                done
              done;
              match !bad with Some msg -> Fail msg | None -> Pass
            end
          in
          let steps = 2 + (3 * n) in
          let rec go i =
            if i >= steps then Pass
            else begin
              Gain_cache.move t (Rng.int rng n) (Rng.int rng k);
              match check_all () with Pass -> go (i + 1) | other -> other
            end
          in
          match check_all () with Pass -> go 0 | other -> other);
    }

let law_properties =
  [
    relabel;
    weight_scale;
    merge_duplicates;
    coarsen_project;
    vcycle_monotone;
    jobs_invariance;
    repair_idempotent;
    memento_roundtrip;
    gain_cache_consistent;
  ]

let all = oracle_properties @ law_properties

let find name =
  List.find_opt (fun p -> Property.packed_name p = name) all
