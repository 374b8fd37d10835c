module Rng = Mlpart_util.Rng
module Pool = Mlpart_util.Pool
module H = Mlpart_hypergraph.Hypergraph
module Fm = Mlpart_partition.Fm
module Prop = Mlpart_partition.Prop
module Lsmc = Mlpart_partition.Lsmc
module Multiway = Mlpart_partition.Multiway
module Ml = Mlpart_multilevel.Ml
module Ml_multiway = Mlpart_multilevel.Ml_multiway
module Nlevel = Mlpart_multilevel.Nlevel
module Rb = Mlpart_multilevel.Rb
module Spectral = Mlpart_placement.Spectral
module Gordian = Mlpart_placement.Gordian

type arity = Exactly of int | Power_of_two | Any

type t = {
  name : string;
  arity : arity;
  balanced : bool;
  fixed : bool;
  run :
    ?fixed:int array ->
    ?pool:Pool.t ->
    tolerance:float ->
    Rng.t ->
    H.t ->
    k:int ->
    int array * int;
}

let accepts t k =
  match t.arity with
  | Exactly n -> k = n
  | Power_of_two -> k >= 2 && k land (k - 1) = 0
  | Any -> k >= 2

let arity_doc = function
  | Exactly n -> Printf.sprintf "k = %d" n
  | Power_of_two -> "a power-of-two k"
  | Any -> "k >= 2"

(* Every entry is built here, so an engine without fixed-module support
   rejects [fixed] in this one place. *)
let entry name ~arity ~balanced ~fixed:supported run =
  {
    name;
    arity;
    balanced;
    fixed = supported;
    run =
      (fun ?fixed ?pool ~tolerance rng h ~k ->
        if fixed <> None && not supported then
          invalid_arg (name ^ ": fixed modules not supported");
        run ?fixed ?pool ~tolerance rng h ~k);
  }

(* A 2-way engine without fixed modules or an intra-run pool. *)
let flat name ~balanced run =
  entry name ~arity:(Exactly 2) ~balanced ~fixed:false
    (fun ?fixed:_ ?pool:_ ~tolerance rng h ~k:_ -> run ~tolerance rng h)

let of_fm name config =
  entry name ~arity:(Exactly 2) ~balanced:true ~fixed:true
    (fun ?fixed ?pool:_ ~tolerance rng h ~k:_ ->
      let r = Fm.run ~config:{ config with Fm.tolerance } ?fixed rng h in
      (r.Fm.side, r.Fm.cut))

let flat_fm = of_fm "flat-fm" Fm.default

let flat_fm_fifo =
  of_fm "flat-fm-fifo" { Fm.default with policy = Mlpart_partition.Gain_bucket.Fifo }

let flat_fm_random =
  of_fm "flat-fm-rnd" { Fm.default with policy = Mlpart_partition.Gain_bucket.Random }

let flat_clip = of_fm "flat-clip" Fm.clip

let with_tolerance (config : Ml.config) tolerance =
  { config with Ml.engine = { config.Ml.engine with Fm.tolerance } }

let ml ?(cycles = 1) name config =
  entry name ~arity:(Exactly 2) ~balanced:true ~fixed:true
    (fun ?fixed ?pool ~tolerance rng h ~k:_ ->
      let config = with_tolerance config tolerance in
      let r = Ml.run_vcycles ~config ?fixed ?pool ~cycles rng h in
      (r.Ml.side, r.Ml.cut))

let ml_at (base : Ml.config) ?(threshold = base.Ml.threshold) ratio =
  { (Ml.with_ratio base ratio) with Ml.threshold }

let mlf ?threshold r = ml "fm" (ml_at Ml.mlf ?threshold r)
let mlc ?threshold r = ml "clip" (ml_at Ml.mlc ?threshold r)

(* The "f" subscript of Table VII: a final plain-FM refinement run after the
   main algorithm terminates. *)
let fm_refined name main =
  flat name ~balanced:true (fun ~tolerance rng h ->
      let side = main ~tolerance rng h in
      let r = Fm.run ~config:{ Fm.default with tolerance } ~init:side rng h in
      (r.Fm.side, r.Fm.cut))

let cl_la3f =
  fm_refined "cl-la3f" (fun ~tolerance rng h ->
      let config = { Fm.clip with tie_break = Fm.Lookahead 3; tolerance } in
      (Fm.run ~config rng h).Fm.side)

let cd_la3f =
  fm_refined "cd-la3f" (fun ~tolerance rng h ->
      let window = Stdlib.max 16 (H.num_modules h / 50) in
      let config =
        { Fm.clip with
          tie_break = Fm.Lookahead 3; backtrack = Some (window, 8); tolerance }
      in
      (Fm.run ~config rng h).Fm.side)

let cl_prf =
  fm_refined "cl-prf" (fun ~tolerance rng h ->
      let config = { Prop.clip = true; tolerance } in
      (Prop.run ~config rng h).Prop.side)

let prop =
  flat "prop" ~balanced:true (fun ~tolerance rng h ->
      let r = Prop.run ~config:{ Prop.default with tolerance } rng h in
      (r.Prop.side, r.Prop.cut))

let lsmc descents =
  flat "lsmc" ~balanced:true (fun ~tolerance rng h ->
      let config =
        { Lsmc.descents; engine = { Lsmc.default.Lsmc.engine with Fm.tolerance } }
      in
      let r = Lsmc.run ~config rng h in
      (r.Lsmc.side, r.Lsmc.cut))

(* Spectral bisection is deterministic and splits at the area median. *)
let eig =
  flat "eig" ~balanced:true (fun ~tolerance:_ _rng h ->
      let r = Spectral.run h in
      (r.Spectral.side, r.Spectral.cut))

(* The two-phase EIG+FM: plain FM from the spectral split, on its own
   fixed generator so the answer stays deterministic.  Like the CLI it has
   always offered, the polish runs at the paper's r = 0.1 whatever
   [tolerance] asks. *)
let eig_fm =
  flat "eig-fm" ~balanced:true (fun ~tolerance:_ _rng h ->
      let r = Fm.run ~init:(Spectral.run h).Spectral.side (Rng.create 0x5bec) h in
      (r.Fm.side, r.Fm.cut))

let ga_fm =
  flat "ga-fm" ~balanced:true (fun ~tolerance rng h ->
      let module G = Mlpart_partition.Genetic in
      let config =
        { G.engine = { G.default.G.engine with Fm.tolerance } }
      in
      let r = G.run ~config rng h in
      (r.G.side, r.G.cut))

(* KL swaps preserve module counts, not weighted areas, and impose no
   bounds. *)
let kl =
  flat "kl" ~balanced:false (fun ~tolerance:_ rng h ->
      let r = Mlpart_partition.Kl.run rng h in
      (r.Mlpart_partition.Kl.side, r.Mlpart_partition.Kl.cut))

let two_phase = ml "two-phase" { Ml.mlc with Ml.max_levels = 1 }

let mlc_vcycles cycles = ml ~cycles "vcycles" (Ml.with_ratio Ml.mlc 0.5)

(* ---- k-way ---- *)

let kway name ~arity ~fixed run = entry name ~arity ~balanced:false ~fixed run

let nlevel =
  kway "nlevel" ~arity:Any ~fixed:false (fun ?fixed:_ ?pool:_ ~tolerance rng h ~k ->
      let r = Nlevel.run ~tolerance rng h ~k in
      (r.Nlevel.side, r.Nlevel.cut))

let rb =
  kway "rb" ~arity:Power_of_two ~fixed:false (fun ?fixed:_ ?pool ~tolerance rng h ~k ->
      let config =
        { Rb.default with ml = with_tolerance Rb.default.Rb.ml tolerance }
      in
      let r = Rb.run ~config ?pool rng h ~k in
      (r.Rb.side, r.Rb.cut))

let multiway ratio =
  kway "multiway" ~arity:Any ~fixed:true (fun ?fixed ?pool:_ ~tolerance rng h ~k ->
      let config =
        { Ml_multiway.ratio; engine = { Multiway.default with tolerance } }
      in
      let r = Ml_multiway.run ~config ?fixed rng h ~k in
      (r.Ml_multiway.side, r.Ml_multiway.cut))

let flat_kway name config =
  kway name ~arity:Any ~fixed:true (fun ?fixed ?pool:_ ~tolerance rng h ~k ->
      let r = Multiway.run ~config:{ config with Multiway.tolerance } ?fixed rng h ~k in
      (r.Multiway.side, r.Multiway.cut))

let net_cut = { Multiway.default with objective = Multiway.Net_cut }
let flat_kway_fm = flat_kway "flat-kway-fm" net_cut
let flat_kway_soed = flat_kway "flat-kway-soed" Multiway.default

(* k-way LSMC: kick a random blob to a random part, re-descend, keep the
   best (temperature 0, kick from best — as in the 2-way version). *)
let lsmc_kway name config descents =
  kway name ~arity:Any ~fixed:false (fun ?fixed:_ ?pool:_ ~tolerance rng h ~k ->
      let config = { config with Multiway.tolerance } in
      let descend init = Multiway.run ~config ?init rng h ~k in
      let first = descend None in
      let best_side = ref first.Multiway.side in
      let best_cut = ref first.Multiway.cut in
      let n = H.num_modules h in
      for _ = 2 to descents do
        let kicked = Array.copy !best_side in
        let blob = Stdlib.max 2 (n / 40) in
        let target = Rng.int rng k in
        for _ = 1 to blob do
          kicked.(Rng.int rng n) <- target
        done;
        let r = descend (Some kicked) in
        if r.Multiway.cut < !best_cut then begin
          best_cut := r.Multiway.cut;
          best_side := r.Multiway.side
        end
      done;
      (!best_side, !best_cut))

let lsmc_kway_fm = lsmc_kway "lsmc-kway-fm" net_cut 20
let lsmc_kway_soed = lsmc_kway "lsmc-kway-soed" Multiway.default 20

let gordian =
  kway "gordian" ~arity:(Exactly 4) ~fixed:false
    (fun ?fixed:_ ?pool:_ ~tolerance:_ _rng h ~k:_ ->
      let r = Gordian.run h in
      (r.Gordian.side, r.Gordian.cut))

let all ?ratio ?threshold () =
  let ratio_or (config : Ml.config) = Option.value ratio ~default:config.Ml.ratio in
  [
    mlf ?threshold (ratio_or Ml.mlf);
    mlc ?threshold (ratio_or Ml.mlc);
    flat_fm;
    flat_fm_fifo;
    flat_fm_random;
    flat_clip;
    eig;
    eig_fm;
    cl_la3f;
    cd_la3f;
    cl_prf;
    prop;
    lsmc 20;
    ga_fm;
    kl;
    two_phase;
    mlc_vcycles 2;
    nlevel;
    rb;
    multiway (Option.value ratio ~default:Ml_multiway.default.Ml_multiway.ratio);
    flat_kway_fm;
    flat_kway_soed;
    lsmc_kway_fm;
    lsmc_kway_soed;
    gordian;
  ]

let find ?ratio ?threshold name =
  List.find_opt (fun t -> t.name = name) (all ?ratio ?threshold ())
