(** Multilevel k-way partitioning (the paper's quadrisection extension,
    §III.C and Table IX).

    Same coarsen / initial-partition / project-and-refine structure as
    {!Ml}, with {!Mlpart_partition.Multiway} as the refinement engine.
    Pre-assigned modules (I/O pads in a placement flow) are never matched
    during coarsening and never moved during refinement. *)

type config = {
  ratio : float;  (** matching ratio R *)
  engine : Mlpart_partition.Multiway.config;
}

val default : config
(** R = 1.0, sum-of-degrees gain — the Table IX MLf setting.  Coarsening
    stops at the paper's T = 100 modules. *)

type result = {
  side : int array;
  cut : int;  (** nets spanning at least two parts *)
  levels : int;
  coarsest_modules : int;
}

val run :
  ?config:config ->
  ?fixed:int array ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  k:int ->
  result
(** [fixed.(v) >= 0] pins module [v] to that part throughout. *)
