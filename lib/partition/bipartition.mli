(** Mutable 2-way partition state shared by all bipartitioning engines.

    Tracks, incrementally under single-module moves: the side of every
    module, per-net pin counts on each side, side areas, and the weighted
    cut.  The cut always accounts for {e every} net — engines that ignore
    large nets during refinement still observe the true cut here, as the
    paper requires ("these nets are reinserted when measuring solution
    quality"). *)

type t

(** {1 Balance} *)

type bounds = { lo : int; hi : int }
(** Admissible range for the area of side 0 (side 1 is implied by the fixed
    total). *)

val bounds : ?tolerance:float -> Mlpart_hypergraph.Hypergraph.t -> bounds
(** The paper's balance rule with tolerance [r] (default 0.1): side areas
    must lie within [A(V)/2 ± slack] with
    [slack = max (A(v_max), r * A(V) / 2)], clamped to [[0, A(V)]].
    The [A(v_max)] term keeps coarse netlists with large clusters
    feasible (paper §III.B). *)

val wide_bounds : ?tolerance:float -> Mlpart_hypergraph.Hypergraph.t -> bounds
(** Variant with the literal §III.B slack [max (A(v_max), r * A(V))];
    used by the balance-slack ablation. *)

(** {1 Construction} *)

val create : Mlpart_hypergraph.Hypergraph.t -> int array -> t
(** [create h side] adopts (copies) the given 0/1 side assignment.
    Raises [Invalid_argument] on a malformed assignment. *)

val random : Mlpart_util.Rng.t -> Mlpart_hypergraph.Hypergraph.t -> t
(** Random near-bisection: a random permutation is split by area midpoint. *)

(** {1 Queries} *)

val hypergraph : t -> Mlpart_hypergraph.Hypergraph.t
val side : t -> int -> int
val side_array : t -> int array
(** Fresh copy of the side assignment. *)

val area_of_side : t -> int -> int
val cut : t -> int
(** Current weighted cut (every net counted). *)

val pins_on : t -> int -> int -> int
(** [pins_on t e s] is the number of pins of net [e] on side [s]. *)

(** {1 Hot-loop views}

    Direct read-only views of the internal arrays, for engine inner loops
    that touch every pin per pass and cannot afford a call per access.
    Callers must not write through them; they alias live state and are
    invalidated by nothing — contents change under {!move}. *)

val side_store : t -> int array
(** [.(v)] is the side of module [v]. *)

val pins_on_store : t -> int array
(** [.(2 * e + s)] is the pin count of net [e] on side [s]. *)

val areas_store : t -> int array
(** [.(s)] is the current area of side [s]; lets engines test balance
    feasibility without a call per candidate. *)

val excess : bounds -> int -> int
(** [excess b area0] is how far a side-0 area of [area0] lies outside [b]:
    positive above [hi], negative below [lo], 0 within (as
    {!Kpartition.excess} is per part). *)

val is_balanced : t -> bounds -> bool
(** [excess b (area_of_side t 0) = 0]. *)

val move_is_feasible : t -> bounds -> int -> bool
(** Would moving module [v] keep side areas within [bounds]?  Computed as
    membership of [area v] in the window of areas that may leave [v]'s
    side: [[area0 - hi, area0 - lo]] from side 0, [[lo - area0,
    hi - area0]] from side 1. *)

val direction_open : t -> bounds -> int -> min_area:int -> max_area:int -> bool
(** [direction_open t b s ~min_area ~max_area] is false when the window of
    {!move_is_feasible} for side [s] misses [[min_area, max_area]].  Given
    the netlist's {!Mlpart_hypergraph.Hypergraph.min_area} and
    {!Mlpart_hypergraph.Hypergraph.max_area}, a false answer means
    {!move_is_feasible} rejects every module on [s], so a selector may
    skip that side's gain bucket in O(1). *)

val gain : ?net_threshold:int -> t -> int -> int
(** FM gain of moving module [v] to the other side: the decrease in cut,
    counting only nets of size [<= net_threshold] (default [max_int]). *)

(** {1 Mutation} *)

val move : t -> int -> unit
(** Move module [v] to the other side, updating pin counts, areas and cut in
    [O(degree v * avg net size)] for cut-state transitions (amortised
    O(degree)). Self-inverse. *)

val stage_move : t -> int -> unit
(** Engine-internal variant of {!move}: flip [v]'s side and the side areas
    {e only}.  The caller owns the per-net pin-count updates (through
    {!pins_on_store}, fused into its own gain-update sweeps) and must treat
    {!cut} as stale until it recomputes it (see {!recompute_cut}).  Balance
    queries ({!is_balanced}, {!move_is_feasible}) stay exact throughout. *)

val rebalance : ?fixed:int array -> Mlpart_util.Rng.t -> t -> bounds -> int
(** Randomly move modules from the heavier side until [is_balanced]; returns
    the number of moves.  Used after projecting a coarse solution whose
    balance slack shrank (paper §III.B).  [fixed.(v) >= 0] exempts module
    [v].  Raises [Failure] if the bounds are unsatisfiable. *)

(** {1 Verification} *)

val recompute_cut : t -> int
(** Cut recomputed from scratch in one CSR sweep; equals [cut t] unless
    moves were staged with {!stage_move}.  Used by tests, assertions, and
    engines that fuse their own count maintenance. *)
