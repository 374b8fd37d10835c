(** PROP — probability-based gains (Dutt & Deng, DAC 1996), as surveyed in
    §II.A of the paper.

    Instead of the immediate cut change, each move is scored by a global
    expectation: every free module is assumed to migrate with probability
    [p] (0.95 in the original work), so the gain of moving [v] across is

    {v g(v) = Σ_nets w(e) · (P[rest of v's side empties] − P[other side empties]) v}

    where a side containing a locked pin can never empty.  With [p -> 0]
    this degenerates to the classic FM gain.  Gains are non-discrete, so a
    binary heap with lazy invalidation replaces the bucket structure — the
    4–8x runtime factor the paper reports stems from exactly this change.
    Passes run on {!Refine_core}: select pops the heap, and commit credits
    the move's discrete FM gain.

    We keep [p] constant while a module is free and drop it to zero on
    locking; this is the simplification documented in DESIGN.md (the
    original also adapts probabilities to gains).

    [clip = true] gives CL-PR: selection is by gain {e offset} from the
    pass-initial gain, as in CLIP. *)

type config = { clip : bool; tolerance : float }

val default : config
(** Plain PROP, tolerance 0.1.  Nets of more than
    {!Refine_core.net_threshold} pins are ignored by gains, and passes run
    until one yields no gain. *)

type result = { side : int array; cut : int }

val run :
  ?config:config ->
  ?init:int array ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  result
(** Same contract as {!Fm.run}. *)
