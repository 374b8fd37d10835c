(** The Fiduccia–Mattheyses iterative-improvement bipartitioner, with the
    paper's refinements.

    One engine covers the whole family the paper studies:
    - bucket tie-breaking policy: LIFO (the paper's choice), FIFO, Random
      (Table II);
    - CLIP, the Dutt–Deng cluster-oriented variant: bucket indices become
      gain {e offsets} from pass-initial gains, so recently-touched
      neighbourhoods dominate selection (Table III);
    - Krishnamurthy lookahead tie-breaking among equal bucket keys with
      level-[r] gain vectors (the CL-LA3 competitor of Table VII);
    - CDIP-style backtracking: a losing streak is undone back to the best
      prefix and a different sequence is forced (the CD-LA3 competitor);
    - a net-size threshold: nets larger than [net_threshold] pins are
      invisible to gains but still counted in the reported cut;
    - optional early pass exit after a fixed number of non-improving moves
      (the Chaco/Metis-style speedup the paper lists as future work;
      exercised by the ablation bench).

    Passes repeat until a pass yields no improvement (or [max_passes]). *)

type tie_break =
  | Plain  (** policy order only *)
  | Lookahead of int
      (** compare level-[r] Krishnamurthy gain vectors among candidates with
          equal bucket keys (level 1 is the bucket key itself) *)

type config = {
  policy : Gain_bucket.policy;
  clip : bool;
  tie_break : tie_break;
  net_threshold : int;  (** nets with more pins are ignored by gains *)
  tolerance : float;  (** balance tolerance [r] of the paper *)
  wide_balance : bool;  (** use {!Bipartition.wide_bounds} (ablation) *)
  max_passes : int;
  early_exit : int option;
      (** [Some k]: abandon a pass after [k] consecutive non-improving
          moves *)
  boundary : bool;
      (** start each pass with only the modules incident to cut nets in the
          bucket structure, inserting others on demand as their gains change
          — the Chaco-style "boundary refinement" the paper's conclusion
          plans to adopt; cheaper passes, near-identical quality on refined
          solutions *)
  backtrack : (int * int) option;
      (** [Some (window, limit)]: CDIP-style — after [window] moves without
          improving on the pass best, undo back to the best prefix, freeze
          the first module of the undone streak and continue; at most
          [limit] undos per pass *)
}

val default : config
(** LIFO, no CLIP, [Plain], threshold {!Refine_core.net_threshold} (200),
    tolerance 0.1, unlimited passes, no early exit, no backtracking — plain
    FM as in the paper's baselines. *)

val clip : config
(** [default] with [clip = true] — the paper's CLIP engine. *)

type result = {
  side : int array;  (** final side assignment *)
  cut : int;  (** true weighted cut (all nets) *)
  passes : int;
  moves : int;  (** total moves performed, including rolled-back ones *)
}

type arena
(** Reusable engine scratch: every per-run array (gains, locks, free-pin
    counts, move stack, insertion-order scratch, boundary-frontier marks)
    plus the two gain buckets.  The arena grows on demand and never needs
    resetting, so one arena threaded through a multilevel refinement sweep
    — or any other loop of {!run} calls — allocates engine state once at
    the largest netlist's size instead of once per call.  Runs that share
    an arena are bit-identical to runs that each create their own.  Not
    safe to share between domains. *)

val create_arena : ?h:Mlpart_hypergraph.Hypergraph.t -> unit -> arena
(** Fresh arena; [h] pre-sizes it for that netlist (pass the finest level
    of a hierarchy to avoid all growth reallocations). *)

val run :
  ?config:config ->
  ?init:int array ->
  ?fixed:int array ->
  ?arena:arena ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  result
(** [run rng h] bipartitions [h].  Without [init], starts from a random
    near-bisection; with [init], refines the given assignment (rebalancing
    it first if it violates the balance bounds — the paper's treatment of
    projected solutions).  [fixed.(v) >= 0] pins module [v] to that side
    for the whole run (terminals and pads in placement-driven flows);
    fixed modules are never moved, including during rebalancing.

    [arena] supplies reusable scratch (see {!arena}); without it the run
    creates its own, so callers outside refinement loops are unaffected. *)

val refine :
  ?config:config ->
  ?fixed:int array ->
  ?arena:arena ->
  Mlpart_util.Rng.t ->
  Bipartition.t ->
  result
(** [refine rng bp] refines [bp] in place, after moving [fixed] modules
    to their sides and rebalancing it as {!run} does.  {!run} is
    {!Bipartition.create} or {!Bipartition.random}, then [refine]. *)

val cut_of : Mlpart_hypergraph.Hypergraph.t -> int array -> int
(** True weighted cut of an arbitrary side assignment (convenience). *)
