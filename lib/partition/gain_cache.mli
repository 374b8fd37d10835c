(** Direct k-way gain cache over a mutable pin-list hypergraph view.

    The cache maintains, for every module [v] and target part [q], the exact
    net-cut gain of moving [v] to [q], decomposed KaHyPar-style into

    - a penalty [p(v)]: total weight of nets of [v] entirely inside [v]'s
      part (moving [v] anywhere newly cuts them), and
    - a benefit [b(v, q)]: total weight of nets of [v] whose only pin in
      [v]'s part is [v] and whose remaining pins all sit in [q] (moving
      [v] to [q] uncuts them),

    with [gain v q = b(v, q) - p(v)].  Nets of more than
    {!Refine_core.net_threshold} (200) pins are invisible to gains but
    still tracked for the incremental cut.

    The backing {!graph} is a growable pins/incidence view (arrays of
    arrays with live-prefix lengths) rather than the immutable CSR, because
    the n-level engine contracts and uncontracts one vertex at a time: pin
    lists shrink and grow between moves.  {!graph_of_hypergraph} copies a
    CSR netlist into that form.

    All updates are deltas, along three paths:

    - {!move} brackets each net incident to the moved module: it retracts
      the net's terms, moves the module, re-derives them, and reports every
      other module's gain change.  The order of those reports steers a
      pass's LIFO buckets, so it is part of the answer.
    - {!restore} rolls back a pass's tail of moves in one bracket per
      touched net: each net incident to a returning module is retracted
      once, every module moves back, and each net is re-derived once.  It
      reports nothing.
    - {!rename_pin} and {!append_pin} keep the cache exact through an
      uncontraction in O(k) per net: a renamed pin hands its terms to the
      new module, and an appended pin changes at most the new pin's
      penalty and its partner's benefit terms.

    Nothing is ever recomputed whole-graph after {!create};
    {!recompute_gain} exists so property tests can check the cached values
    against a from-scratch computation. *)

(** Mutable hypergraph view shared between the cache and its owner (the
    n-level hierarchy).  [net_pins.(e).(0 .. net_size.(e) - 1)] are the live
    pins of net [e] (distinct, alive modules); [mod_nets.(v).(0 ..
    mod_deg.(v) - 1)] the live incident nets of [v].  While a cache rides
    along, the owner edits live prefixes only as {!rename_pin} and
    {!append_pin} describe. *)
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

val restore : t -> int array -> int array -> int -> unit
(** [restore t vs from len] rolls back a tail of moves: each module
    [vs.(i)], [i < len], returns to part [from.(vs.(i))], and the cache
    ends as those moves one by one would leave it.  Each net incident to a
    listed module is retracted and re-derived once, however many listed
    modules it holds.  Nothing is reported. *)

(** {1 Structural edits (uncontraction)} *)

val activate : t -> int -> part:int -> unit
(** Bring a restored module into the partition at [part].  Its cache
    entries must be vacuously zero (true for a module contracted away
    before {!create}, the n-level case). *)

val rename_pin : t -> int -> u:int -> v:int -> unit
(** [rename_pin t e ~u ~v]: net [e]'s live pin [u] is about to become [v],
    which is active in [u]'s part.  Pin counts, span and cut stay; [u]'s
    terms from [e] pass to [v].  O(k). *)

val append_pin : t -> int -> u:int -> v:int -> unit
(** [append_pin t e ~u ~v]: [v], active in [u]'s part, is about to be
    appended to net [e], which holds [u].  Call it before the owner grows
    [e]'s live prefix.  O(k), except that a net growing past
    {!Refine_core.net_threshold} pins retracts its terms over its pins. *)

(** {1 Verification} *)

val recompute_gain : t -> int -> int -> int
(** From-scratch gain of moving [v] to [q], computed by sweeping [v]'s
    nets; the cached {!gain} must always equal it. *)

val recompute_cut : t -> int
(** From-scratch weighted cut over all nets. *)
