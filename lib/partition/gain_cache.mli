(** Direct k-way gain cache over a {!Kpartition.t}.

    The cache maintains, for every module [v] and target part [q], the exact
    net-cut gain of moving [v] to [q], decomposed KaHyPar-style into

    - a penalty [p(v)]: total weight of nets of [v] entirely inside [v]'s
      part (moving [v] anywhere newly cuts them), and
    - a benefit [b(v, q)]: total weight of nets of [v] whose only pin in
      [v]'s part is [v] and whose remaining pins all sit in [q] (moving
      [v] to [q] uncuts them),

    with [gain v q = b(v, q) - p(v)].  Nets of more than
    {!Refine_core.net_threshold} (200) pins are invisible to gains.

    The cache holds gain terms only.  The partition holds the assignment,
    the part areas, the per-net per-part pin counts, the spans and the cut,
    and every term is read off its pin counts, as the n-level engine's
    partitioned hypergraph does in KaHyPar.  All updates are deltas, along
    three paths:

    - {!move} retracts the terms of every net incident to the moved
      module, calls {!Kpartition.move}, adds them all back, and reports
      every other module's gain change.  The order of those reports steers
      a pass's LIFO buckets, so it is part of the answer.
    - {!restore} rolls back a pass's tail of moves in one bracket per
      touched net: each net incident to a returning module is retracted
      once, every module moves back through {!Kpartition.move}, and each
      net's terms are added once.  It reports nothing.
    - {!rename_pin} and {!append_pin} keep the cache exact through an
      uncontraction in O(k) per net: a renamed pin hands its terms to the
      new module, and an appended pin changes at most the new pin's
      penalty and its partner's benefit terms, then calls
      {!Kpartition.add_pin}.

    Nothing is ever recomputed whole-graph after {!create};
    {!recompute_gain} exists so property tests can check the cached values
    against a from-scratch computation. *)

type t

val create : Kpartition.t -> t
(** [create kp] builds the terms for the current assignment and live
    structure of [kp].  The cache owns all later writes to [kp]: move its
    modules through {!move} and {!restore} only. *)

val partition : t -> Kpartition.t
(** The partition the terms are read from (live; read-only). *)

val gain : t -> int -> int -> int
(** [gain t v q] is the cached net-cut gain of moving [v] to part [q]
    ([q <> Kpartition.side (partition t) v]). *)

val move : ?on_delta:(int -> int -> int -> unit) -> t -> int -> int -> unit
(** [move t v q] moves [v] to part [q] in the partition and updates every
    cached gain entry touched by the move.  [on_delta w r d] is called for
    each other module [w] whose cached [gain w r] changed by [d] (once per
    contributing net term; deltas for the moved module itself are not
    reported). *)

val restore : t -> int array -> int array -> int -> unit
(** [restore t vs from len] rolls back a tail of moves: each module
    [vs.(i)], [i < len], returns to part [from.(vs.(i))], and the cache
    ends as those moves one by one would leave it.  Each net incident to a
    listed module is retracted and re-added once, however many listed
    modules it holds.  Nothing is reported. *)

(** {1 Structural edits (uncontraction)}

    The restored module must already be active in its partner's part
    ({!Kpartition.activate}); its cache entries must be vacuously zero
    (true for a module contracted away before {!create}, the n-level
    case). *)

val rename_pin : t -> int -> u:int -> v:int -> unit
(** [rename_pin t e ~u ~v]: net [e]'s live pin [u] is about to become [v],
    which is active in [u]'s part.  Pin counts, span and cut stay; [u]'s
    terms from [e] pass to [v].  O(k). *)

val append_pin : t -> int -> u:int -> v:int -> unit
(** [append_pin t e ~u ~v]: [v], active in [u]'s part, is about to be
    appended to net [e], which holds [u].  Call it before the owner grows
    [e]'s live prefix; it ends with {!Kpartition.add_pin}.  O(k), except
    that a net growing past {!Refine_core.net_threshold} pins retracts its
    terms over its pins. *)

(** {1 Verification} *)

val recompute_gain : t -> int -> int -> int
(** From-scratch gain of moving [v] to [q], computed by sweeping [v]'s
    nets against the partition's pin counts; the cached {!gain} must
    always equal it. *)
