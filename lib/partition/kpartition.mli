(** Mutable k-way partition state (k >= 2), the one k-way state: Multiway
    and the n-level {!Gain_cache} both read it.

    Tracks per-net pin counts in every part, the number of parts each net
    spans, part areas, the weighted net cut (nets spanning >= 2 parts) and
    the weighted sum-of-cluster-degrees objective [Σ w(e) * (spans(e) - 1)]
    — the two gain objectives of the paper's §III.C.  It sits on a growable
    {!graph} rather than the immutable CSR, because the n-level engine
    contracts and uncontracts one vertex at a time. *)

(** Mutable hypergraph view.  [net_pins.(e).(0 .. net_size.(e) - 1)] are
    the live pins of net [e] (distinct, alive modules); [mod_nets.(v).(0 ..
    mod_deg.(v) - 1)] the live incident nets of [v].  While a partition
    rides along, its owner may rename a live pin to a module of the same
    part, and counts each pin it appends with {!add_pin}. *)
type graph = {
  areas : int array;
  net_pins : int array array;
  net_size : int array;
  net_weight : int array;
  mod_nets : int array array;
  mod_deg : int array;
}

val graph_of_hypergraph : Mlpart_hypergraph.Hypergraph.t -> graph
(** Fresh mutable copy of a netlist's CSR structure. *)

type t

val create : Mlpart_hypergraph.Hypergraph.t -> k:int -> int array -> t
(** Adopt (copy) a part assignment in [0 .. k-1], over a
    {!graph_of_hypergraph} copy of the netlist. *)

val cut_of : Mlpart_hypergraph.Hypergraph.t -> k:int -> int array -> int
(** Weighted count of the nets an assignment cuts, read straight off the
    netlist's CSR: no partition is built.  Like {!create}, raises
    [Invalid_argument] when [k < 2], the assignment's length is not the
    module count, or a part lies outside [0 .. k-1]. *)

val of_graph : graph -> k:int -> members:int array -> int array -> t
(** [of_graph g ~k ~members side] partitions the current live structure
    of [g].  [members] lists the alive modules (for part areas); [side] is
    borrowed — the partition owns all writes to it from then on.  Entries
    of modules not in [members] must not be queried until the module is
    brought in via {!activate}. *)

val random :
  ?fixed:int array ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  k:int ->
  t
(** Random balanced assignment: modules in random order go to the currently
    lightest part.  [fixed.(v) >= 0] pre-assigns module [v] (the paper's
    pre-placed I/O pads); [-1] means free. *)

val graph : t -> graph
(** The view the partition sits on (live; only its owner writes it). *)

val k : t -> int
val side : t -> int -> int
val side_array : t -> int array
(** Fresh copy of the assignment. *)

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
    [min (hi - to_area) (from_area - lo)]. *)

val move_budget : t -> bounds -> int -> int -> int
(** [move_budget t b p q] is {!budget} for the current areas of parts [p]
    and [q].  When it is below the smallest module area, no module may
    move from [p] to [q], and a selector can skip that direction bucket in
    O(1). *)

val move : t -> int -> int -> unit
(** [move t v q] reassigns module [v] to part [q], updating the pin counts
    and spans of its live nets, the part areas, the cut and the sum of
    degrees. *)

val activate : t -> int -> part:int -> unit
(** [activate t v ~part]: restored module [v] joins its partner's part
    [part].  Its area is split off the partner's, so part areas stay. *)

val add_pin : t -> int -> int -> unit
(** [add_pin t e v]: active module [v] joins net [e], which already holds
    a pin in [v]'s part: that part's pin count grows, and the span, the
    cut and the sum of degrees stay. *)

val rebalance : ?fixed:int array -> Mlpart_util.Rng.t -> t -> bounds -> int
(** Move random free modules from over-full to under-full parts until
    balanced; returns the move count. *)

val recompute_cut : t -> int
(** From-scratch cut over the assignment and the live pins. *)
