(** ML — the paper's multilevel bipartitioning algorithm (Figure 2).

    Coarsening: {!Match} clusterings induce successively coarser netlists
    while the module count exceeds the threshold [T].  The coarsest netlist
    is partitioned from a random start, and the solution is projected and
    refined level by level with an FM-family engine.  [MLf] is ML with the
    plain FM engine, [MLc] with CLIP (the paper's strongest variant). *)

type config = {
  threshold : int;  (** T: stop coarsening at this many modules (paper: 35) *)
  ratio : float;  (** R: matching ratio controlling coarsening speed *)
  match_net_size : int;  (** nets above this size ignored by Match (10) *)
  merge_duplicates : bool;
      (** merge identical coarse nets into weighted ones (extension;
          Definition 1 keeps duplicates) *)
  engine : Mlpart_partition.Fm.config;  (** refinement engine run at every level *)
  max_levels : int;  (** hierarchy depth safety bound *)
  coarsest_starts : int;
      (** independent partitioning attempts of the coarsest netlist, keeping
          the best — the paper's "spend more CPU at the top levels" future
          work; 1 reproduces the published algorithm *)
  rounds : int;
      (** max {!Mlpart_partition.Rounds} pre-pass rounds per refinement
          level (0 disables); the pre-pass runs with or without a pool, so
          results stay jobs-invariant *)
  rounds_min_modules : int;
      (** pre-pass only at levels with at least this many modules — small
          levels are cheaper to hand straight to the sequential engine *)
}

val mlf : config
(** R = 1.0, T = 35, FM engine — the paper's MLf at its default setting. *)

val mlc : config
(** R = 1.0, T = 35, CLIP engine — the paper's MLc. *)

val with_ratio : config -> float -> config
(** Same configuration at a different matching ratio R. *)

type result = {
  side : int array;
  cut : int;
  levels : int;  (** number of coarsening levels (m in the paper) *)
  coarsest_modules : int;
}

val run :
  ?config:config ->
  ?fixed:int array ->
  ?pool:Mlpart_util.Pool.t ->
  ?arena:Mlpart_partition.Fm.arena ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  result
(** [fixed.(v) >= 0] pins module [v] to that side at every level (it is
    never matched during coarsening and never moved during refinement) —
    the 2-way analogue of the quadrisection pad mechanism, used by
    recursive bisection with terminal propagation.

    [pool] parallelises the run internally: per-level match rating and
    CSR induce during coarsening, the {!Mlpart_partition.Rounds} pre-pass
    scoring during refinement, and the [coarsest_starts] multi-start.
    Every parallel stage commits its results in a deterministic order
    (and multi-starts draw from pre-split generators), so the cut and
    side assignment are bit-identical for any pool size — including no
    pool at all.

    When {!Mlpart_obs.Trace} is enabled the run emits [ml/coarsen],
    [ml/initial], [ml/refine] and per-level [ml/refine_level] spans — the
    per-phase breakdown that used to be a separate timer is derived from
    these.

    [arena] is reusable FM engine scratch shared by the initial partition
    and every refinement level; without it one is created per call, sized
    to [h] (see {!Mlpart_partition.Fm.arena}).  Results are identical
    either way. *)

val run_vcycles :
  ?config:config ->
  ?fixed:int array ->
  ?pool:Mlpart_util.Pool.t ->
  ?arena:Mlpart_partition.Fm.arena ->
  cycles:int ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  result
(** Iterated multilevel refinement (an extension beyond the paper, in the
    spirit of hMETIS V-cycles): after a first {!run}, each further cycle
    re-coarsens with matching restricted to same-side pairs — so the
    current solution projects exactly onto every level — and refines it
    back up.  The cut never increases across cycles.  [cycles = 1] is
    exactly {!run}. *)

(** {1 Hierarchy reuse (the serve-mode cache seam)}

    {!run} is exactly {!hierarchy} followed by {!run_hierarchy} on the
    same generator — callers that hold a prebuilt hierarchy (the serve
    daemon's content-addressed cache) skip the coarsening phase entirely
    and still get bit-identical results to a cold run that built the
    hierarchy with the same coarsening generator. *)

val hierarchy :
  ?config:config ->
  ?fixed:int array ->
  ?pool:Mlpart_util.Pool.t ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  Hierarchy.t
(** The coarsening phase alone, inside its [ml/coarsen] trace span.
    Consumes coarsening draws from the generator. *)

val run_hierarchy :
  ?config:config ->
  ?pool:Mlpart_util.Pool.t ->
  ?arena:Mlpart_partition.Fm.arena ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  Hierarchy.t ->
  result
(** Initial partition + refinement over a prebuilt hierarchy of the given
    netlist ([ml/initial] and [ml/refine] spans; no [ml/coarsen]).  Fixed
    assignments travel inside the hierarchy; the hierarchy value is only
    read, so it can be shared across calls with different generators. *)

(** Access to the phases, for tests and custom flows. *)

val coarsen :
  ?config:config ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  (Mlpart_hypergraph.Hypergraph.t * int array) list
  * Mlpart_hypergraph.Hypergraph.t
(** The coarsening hierarchy as [(netlist, cluster_of)] pairs, finest first
    ([cluster_of] maps that netlist's modules to the next-coarser netlist's
    modules), together with the coarsest netlist.  The pair list is empty
    when the input is already below the threshold. *)

val project : int array -> int array -> int array
(** [project cluster_of coarse_side] lifts a coarse assignment to the finer
    level (Definition 2). *)

val refine_up :
  config ->
  ?pool:Mlpart_util.Pool.t ->
  ?arena:Mlpart_partition.Fm.arena ->
  Mlpart_util.Rng.t ->
  Hierarchy.t ->
  int array ->
  int array
(** The uncoarsening half of {!run} (steps 7-9 of Figure 2): project the
    coarsest-level assignment level by level, run the round-based
    pre-pass at levels of at least [rounds_min_modules] modules (see
    {!Mlpart_partition.Rounds}), and refine each projection with the
    configured engine, returning the finest-level assignment.  [pool]
    parallelizes the pre-pass scoring; output is bit-identical without
    it.  Exposed for refinement-only benchmarking and custom flows. *)
