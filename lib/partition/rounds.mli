(** Round-based parallel move engine: a coarse refinement pre-pass whose
    output is bit-identical for any pool size.

    Each synchronous round scores the FM gain of every free module against
    a frozen snapshot of the partition (module-centric, so disjoint ranges
    are scored in parallel with no write contention), then commits a
    deterministically ordered feasible subset: candidates with positive
    gain sorted by (gain desc, module index asc), skipping any move that
    shares a net with an already-committed move of the same round
    (net-conflict marking) or violates the balance contract.  Because
    accepted moves are net-disjoint, each committed gain is exact and the
    cut decreases by exactly the sum of accepted gains — the engine is
    monotone.  Rounds repeat until no positive-gain move commits.

    This intentionally trades hill-climbing power for parallel scoring: it
    makes only positive-gain moves, so it is a pre-pass that hands a
    strictly-no-worse solution to the exact sequential FM polish, not a
    replacement for it (the synchronous-round design follows deterministic
    parallel partitioners such as BiPart/Mt-KaHyPar-SDet). *)

type result = {
  moved : int;  (** total committed moves *)
  rounds : int;  (** rounds executed, including the final empty one *)
  gain : int;  (** total cut improvement *)
}

val run :
  ?pool:Mlpart_util.Pool.t ->
  ?fixed:int array ->
  ?net_threshold:int ->
  ?max_rounds:int ->
  bounds:Bipartition.bounds ->
  Bipartition.t ->
  result
(** [run ~bounds bp] refines [bp] in place: gains read its sides and pin
    counts, and every commit is a {!Bipartition.move}, so its cut stays
    exact.  [fixed.(v) >= 0] pins module [v] (it never moves).  Nets
    larger than [net_threshold] are ignored by gains, as in {!Fm}.  A move
    must land the side-0 area inside [bounds], or strictly reduce its
    distance to them ({!Bipartition.excess}), so rounds can help repair a
    projected solution whose balance slack shrank.  [max_rounds] caps the
    number of rounds.  [pool] parallelizes the scoring sweeps; the
    committed move sequence is a pure function of the input for every pool
    size. *)
