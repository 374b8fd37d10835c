(** Mutable k-way partition state (k >= 2) for the quadrisection engines.

    Tracks per-net pin counts in every part, the number of parts each net
    spans, part areas, the weighted net cut (nets spanning >= 2 parts) and
    the weighted sum-of-cluster-degrees objective [Σ w(e) * (spans(e) - 1)]
    — the two gain objectives of the paper's §III.C. *)

type t

val create : Mlpart_hypergraph.Hypergraph.t -> k:int -> int array -> t
(** Adopt (copy) a part assignment in [0 .. k-1]. *)

val random :
  ?fixed:int array ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  k:int ->
  t
(** Random balanced assignment: modules in random order go to the currently
    lightest part.  [fixed.(v) >= 0] pre-assigns module [v] (the paper's
    pre-placed I/O pads); [-1] means free. *)

val k : t -> int
val side : t -> int -> int
val side_array : t -> int array
val area_of_part : t -> int -> int
val pins_on : t -> int -> int -> int
(** [pins_on t e p]: pins of net [e] in part [p]. *)

val spans : t -> int -> int
(** Number of parts net [e] touches. *)

val cut : t -> int
(** Weighted count of nets spanning at least two parts. *)

val sum_degrees : t -> int
(** Weighted [Σ (spans(e) - 1)]. *)

(** {1 Hot-loop views}

    Direct read-only views of the internal arrays, for engine inner loops
    that touch every pin of every net around a move (the multiway gain
    update).  Callers must not write through them; they alias live state
    and change under {!move}. *)

val side_store : t -> int array
(** [.(v)] is the part of module [v]. *)

val pins_on_store : t -> int array
(** [.(k * e + p)] is the pin count of net [e] in part [p]. *)

val spans_store : t -> int array
(** [.(e)] is the number of parts net [e] touches. *)

val areas_store : t -> int array
(** [.(p)] is the area of part [p]. *)

type bounds = { lo : int; hi : int }

val bounds : ?tolerance:float -> Mlpart_hypergraph.Hypergraph.t -> k:int -> bounds
(** Per-part area window [A(V)/k ± max (A(v_max), r * A(V) / k)]. *)

val excess : bounds -> int -> int
(** [excess b area] is how far a part of [area] lies outside [b]: positive
    above [hi], negative below [lo], 0 within. *)

val is_balanced : t -> bounds -> bool

val move_is_feasible : t -> bounds -> int -> int -> bool
(** [move_is_feasible t b v q]: would moving [v] to part [q] keep both the
    source and destination parts within [b]?  True iff [v] is not in [q]
    and [area v <= move_budget t b (side t v) q]. *)

val budget : bounds -> from_area:int -> to_area:int -> int
(** [budget b ~from_area ~to_area] is the largest module area that may
    move from a part of area [from_area] to a part of area [to_area] with
    the source staying [>= lo] and the target [<= hi]:
    [min (hi - to_area) (from_area - lo)].  Engines that track part areas
    outside a {!t} (the n-level gain cache) call it directly. *)

val move_budget : t -> bounds -> int -> int -> int
(** [move_budget t b p q] is {!budget} for the current areas of parts [p]
    and [q].  When it is below the netlist's
    {!Mlpart_hypergraph.Hypergraph.min_area}, no module may move from [p]
    to [q], and a selector can skip that direction bucket in O(1). *)

val move : t -> int -> int -> unit
(** [move t v q] reassigns module [v] to part [q]. *)

val rebalance : ?fixed:int array -> Mlpart_util.Rng.t -> t -> bounds -> int
(** Move random free modules from over-full to under-full parts until
    balanced; returns the move count. *)

val recompute_cut : t -> int
(** From-scratch verification of [cut]. *)
