(** Direct k-way gain cache over a mutable pin-list hypergraph view.

    The cache maintains, for every module [v] and target part [q], the exact
    net-cut gain of moving [v] to [q], decomposed KaHyPar-style into

    - a penalty [p(v)]: total weight of nets of [v] entirely inside [v]'s
      part (moving [v] anywhere newly cuts them), and
    - a benefit [b(v, q)]: total weight of nets of [v] whose only pin in
      [v]'s part is [v] and whose remaining pins all sit in [q] (moving
      [v] to [q] uncuts them),

    with [gain v q = b(v, q) - p(v)].  Nets of more than 200 pins are
    invisible to gains but still tracked for the incremental cut.

    The backing {!graph} is a growable pins/incidence view (arrays of
    arrays with live-prefix lengths) rather than the immutable CSR, because
    the n-level engine contracts and uncontracts one vertex at a time: pin
    lists shrink and grow between moves.  {!graph_of_hypergraph} copies a
    CSR netlist into that form.

    All updates are deltas.  A {!move} re-derives only the terms of the
    nets incident to the moved module; structural edits (a pin appearing or
    being renamed during uncontraction) are bracketed by
    {!net_will_change} / {!net_changed}, which retract and re-derive one
    net's contributions.  Nothing is ever recomputed whole-graph after
    {!create}; {!recompute_gain} exists so property tests can check the
    cached values against a from-scratch computation. *)

(** Mutable hypergraph view shared between the cache and its owner (the
    n-level hierarchy).  [net_pins.(e).(0 .. net_size.(e) - 1)] are the live
    pins of net [e] (distinct, alive modules); [mod_nets.(v).(0 ..
    mod_deg.(v) - 1)] the live incident nets of [v].  Owners may mutate
    live prefixes only through the bracketing protocol above. *)
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

val create : graph -> k:int -> members:int array -> int array -> t
(** [create g ~k ~members side] builds the cache for the current live
    structure of [g].  [members] lists the alive modules (for part areas);
    [side] is borrowed — the cache owns all writes to it from then on.
    Entries of modules not in [members] must not be queried until the
    module is brought in via {!activate}. *)

val k : t -> int
val side : t -> int -> int
val side_array : t -> int array
(** The borrowed assignment array (live; copy before publishing). *)

val cut : t -> int
(** Current weighted cut, maintained incrementally. *)

val part_areas : t -> int array
(** [.(p)] is the area of part [p] (live; read-only). *)

val area : t -> int -> int
(** Current area of a module (reads the shared {!graph} array, which the
    owner updates as contractions merge and uncontractions split areas). *)

val gain : t -> int -> int -> int
(** [gain t v q] is the cached net-cut gain of moving [v] to part [q]
    ([q <> side t v]). *)

val move : ?on_delta:(int -> int -> int -> unit) -> t -> int -> int -> unit
(** [move t v q] moves [v] to part [q], updating the assignment, part
    areas, per-net span counts, the cut, and every cached gain entry
    touched by the move.  [on_delta w r d] is called for each other module
    [w] whose cached [gain w r] changed by [d] (once per contributing net
    term; deltas for the moved module itself are not reported). *)

(** {1 Structural edits (uncontraction)} *)

val activate : t -> int -> part:int -> unit
(** Bring a restored module into the partition at [part].  Its cache
    entries must be vacuously zero (true for a module contracted away
    before {!create}, the n-level case). *)

val net_will_change : t -> int -> unit
(** Retract net [e]'s contributions (gain terms and cut) ahead of a
    structural edit to its live pins. *)

val net_changed : t -> int -> unit
(** Re-derive net [e]'s span counts, cut term and gain contributions from
    its current live pins, after a structural edit announced by
    {!net_will_change}. *)

(** {1 Verification} *)

val recompute_gain : t -> int -> int -> int
(** From-scratch gain of moving [v] to [q], computed by sweeping [v]'s
    nets; the cached {!gain} must always equal it. *)

val recompute_cut : t -> int
(** From-scratch weighted cut over all nets. *)
