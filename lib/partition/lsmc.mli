(** LSMC — Large-Step Markov Chain bipartitioning (Fukunaga, Huang & Kahng,
    ISCAS 1996), the competitor the paper re-implemented for Table VII.

    The chain repeatedly "kicks" the best solution seen so far — moving a
    random connected blob of modules across the cut to escape the current
    basin — then descends back to a local minimum with an FM-family engine,
    keeping the result if it improves.  The paper runs 100 descents with the
    kick applied to the best solution observed so far (temperature 0). *)

type config = {
  engine : Fm.config;  (** descent engine (plain FM or CLIP) *)
  descents : int;  (** number of kick+descend iterations; default 100 *)
}

val default : config
(** FM descents, 100 iterations.  Every kick flips a blob of 5% of the
    modules. *)

type result = { side : int array; cut : int }

val run :
  ?config:config ->
  ?init:int array ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  result
