(** GORDIAN-style quadrisection baseline (Kleinhans et al., TCAD 1991), the
    comparison point of the paper's Table IX.

    The published GORDIAN mechanism: pre-place the I/O pads, minimise
    quadratic wirelength to obtain module coordinates, split the horizontal
    ordering into two equal-area halves, then split each half by the
    vertical ordering — yielding the 4-way partitioning that the placement
    preserves.  The benchmarks' pad lists are not available, so pads are
    substituted by the highest-degree modules, pinned at deterministic
    positions on the boundary of the unit die (see DESIGN.md §2). *)

type config = {
  num_pads : int option;
      (** pads to pre-place; default [None] = [max 16 (n / 100)] *)
}

val default : config
(** Default pad count.  Nets use {!Quadratic.build}'s net model, and each
    axis is solved to a relative residual of 1e-7 or 500 conjugate-gradient
    iterations. *)

type result = {
  side : int array;  (** quadrant of each module, in [0 .. 3] *)
  cut : int;  (** nets spanning at least two quadrants *)
  x : float array;  (** placement coordinates *)
  y : float array;
  hpwl : float;
  pads : int array;  (** modules that were pre-placed *)
}

val run : ?config:config -> Mlpart_hypergraph.Hypergraph.t -> result
(** Deterministic: no RNG — the analytic placement and median splits have a
    single outcome, as with the real tool. *)

val quadrants_of_placement :
  Mlpart_hypergraph.Hypergraph.t -> x:float array -> y:float array -> int array
(** Equal-area median splits of an arbitrary placement: first by [x] into
    left/right, then each half by [y].  Quadrant ids: 0 = left-bottom,
    1 = left-top, 2 = right-bottom, 3 = right-top. *)
