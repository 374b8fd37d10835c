(** Top-down standard-cell placement by recursive multilevel quadrisection —
    the application the paper's quadrisection work powers (§III.C and [24],
    "Partitioning-Based Standard-Cell Global Placement").

    The die (unit square) is recursively split into quadrants.  At each
    region, a sub-netlist is extracted and partitioned 4-ways with the
    multilevel engine; nets that leave the region are handled by a
    configurable {e terminal propagation} model — external pins become
    fixed dummy terminals pre-assigned to the quadrant nearest their
    current location, steering the partitioner the way the eventual routes
    will pull.  I/O pads are pre-placed on the die boundary and act as
    external terminals throughout.

    The result is a coordinate for every module and the half-perimeter
    wirelength of the global placement. *)

type terminal_model =
  | Ignore_external
      (** cut nets crossing the region boundary are simply truncated *)
  | Propagate_to_quadrant
      (** external pins of a net become a fixed terminal in the quadrant
          nearest their centroid (the standard Dunlop–Kernighan scheme) *)

type config = {
  leaf_size : int;  (** stop recursing below this many modules (default 12) *)
  terminal_model : terminal_model;
}

val default : config
(** Terminal propagation on, MLf quadrisection as in Table IX.  The pads
    are {!Gordian.pads}: the [max 16 (n / 100)] highest-degree modules. *)

type result = {
  x : float array;
  y : float array;
  hpwl : float;
  regions : int;  (** quadrisection calls performed *)
  pads : int array;
  timed_out : bool;
      (** the cooperative [deadline] expired: some regions were spread
          without quadrisection (every module still has a coordinate) *)
}

val run :
  ?config:config ->
  ?deadline:Mlpart_util.Deadline.t ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  result
(** A region whose quadrisection leaves every member in one quadrant is
    spread like a leaf rather than split again.
    [deadline] is polled cooperatively before each region's quadrisection;
    once expired, remaining regions degrade to leaf spreading, so the call
    always returns a complete placement.  Work finished before expiry is
    identical to the untimed run. *)

val grid_legalize :
  Mlpart_hypergraph.Hypergraph.t ->
  x:float array ->
  y:float array ->
  float array * float array
(** Snap an (overlapping) analytic placement to a uniform √n x √n grid
    preserving the relative ordering: modules are sorted into equal-size
    columns by [x], then spaced by [y] within each column.  Makes
    HPWL comparisons against {!run} (whose leaves are already spread)
    meaningful — analytic placements otherwise understate wirelength by
    stacking cells at the die centre. *)
