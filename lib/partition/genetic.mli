(** Hybrid genetic/FM bipartitioning in the style of Bui–Moon (DAC 1994)
    and the GMet column of Table VII: a small population of FM-refined
    solutions evolved by crossover + mutation, every offspring re-refined
    by FM before competing.

    The crossover normalises parent polarity first (a bipartition and its
    complement are the same solution), takes each module's side from a
    random parent, repairs balance, mutates a few modules, and descends
    with the configured FM engine.  Steady-state replacement of the worst
    member. *)

type config = { engine : Fm.config  (** refinement engine *) }

val default : config
(** Plain FM descents.  The population is 8, 24 offspring are produced,
    and each module of an offspring flips with probability 0.02, so a run
    performs 32 descents. *)

type result = {
  side : int array;
  cut : int;
  evaluations : int;  (** FM descents performed *)
}

val run :
  ?config:config ->
  ?init:int array ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  result
(** [init], when given, seeds one population member. *)
