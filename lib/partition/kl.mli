(** Kernighan–Lin pair-swap bipartitioning (Bell Syst. Tech. J. 1970) —
    the ancestor of FM that the paper's §I departs from.  Provided as an
    educational baseline; it maintains exact balance by construction
    (modules swap rather than move), and its passes cost far more than
    FM's, which is precisely the motivation for Fiduccia–Mattheyses.

    Candidate pruning keeps it usable: each step evaluates exact swap
    gains only between the 12 highest-gain modules of each side (classic
    KL evaluates all pairs).  Passes run on {!Refine_core}, one swap per
    move, until one yields no gain; nets of more than
    {!Refine_core.net_threshold} pins are ignored by gains. *)

type result = { side : int array; cut : int; passes : int }

val run :
  ?init:int array ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  result
