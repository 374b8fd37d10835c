(** Shared coarsening-hierarchy construction for the multilevel drivers.

    Repeatedly applies {!Match} and {!Mlpart_hypergraph.Hypergraph.induce}
    until the netlist drops below a threshold, carrying pre-assigned
    (fixed) modules through the levels: fixed modules are never matched,
    and each coarse cluster inherits the pre-assignment of its (unique)
    fixed member. *)

type level = {
  netlist : Mlpart_hypergraph.Hypergraph.t;
  cluster_of : int array;
      (** maps this level's modules to the next-coarser level's modules *)
  fixed : int array option;  (** this level's pre-assignments, if any *)
}

type t = {
  levels : level list;  (** finest first; empty if no coarsening happened *)
  coarsest : Mlpart_hypergraph.Hypergraph.t;
  coarsest_fixed : int array option;
}

val build :
  threshold:int ->
  ratio:float ->
  merge_duplicates:bool ->
  max_levels:int ->
  ?fixed:int array ->
  ?pair_ok:(int -> int -> bool) ->
  ?pool:Mlpart_util.Pool.t ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  t
(** [pair_ok] restricts matching beyond the fixed-module rule (used by
    V-cycles to keep clusters side-pure).  Coarsening stops early if a
    Match pass achieves no contraction.  [pool] parallelizes each level's
    match rating and induce; the hierarchy is bit-identical with and
    without it.  One induce arena serves every level.

    Match ignores nets above its own default size (10 pins).  Cluster
    areas are capped at 4 times the average module area of a
    threshold-sized netlist ([4 * A(V) / threshold]); without the cap,
    iterated matching lets one cluster snowball to most of the total area,
    leaving the coarsest netlist no balance freedom. *)

val project_fixed : int array -> int -> int array -> int array
(** [project_fixed cluster_of k fixed] lifts pre-assignments one level up:
    cluster [c] inherits the assignment of any fixed member. *)
