(** Direct k-way n-level partitioning engine.

    Where {!Hierarchy} coarsens in batched levels (one matching per level,
    one induced hypergraph each), this engine contracts a single vertex
    pair at a time, KaHyPar-style, recording a memento per contraction
    (the pair plus the pin-list deltas).  Uncoarsening replays the memento
    trail lazily in reverse — one vertex reappears per step — and runs
    highly localized refinement around each restored pair on top of a
    persistent {!Mlpart_partition.Gain_cache}, so gains are delta-updated
    across the whole uncoarsening instead of being rebuilt per level.  A
    final full k-way FM polish ({!Mlpart_partition.Multiway.refine} over
    the cached gains) runs once the finest graph is restored; should a part
    still lie outside the bounds, a balance repair and a second polish
    follow.

    The engine is strictly sequential and deterministic: results depend
    only on the seed, never on a worker pool. *)

type result = {
  side : int array;
  cut : int;  (** weighted count of nets spanning >= 2 parts *)
  contractions : int;
  moves : int;  (** refinement moves kept (local + final passes) *)
}

val run :
  ?tolerance:float ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  k:int ->
  result
(** [run rng h ~k] partitions [h] into [k >= 2] parts, each within
    [Kpartition.bounds ~tolerance] (the paper's r per part, default 0.1).
    Deterministic in [rng]'s seed. *)

(** {1 Hierarchy internals (for property tests)}

    The contraction trail without any partitioning on top: build it, replay
    it, and compare the restored structure against the input. *)

type hierarchy

val coarsen_only :
  ?threshold:int ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  hierarchy
(** Contract down to the threshold, recording the memento trail. *)

val uncontract_all : hierarchy -> unit
(** Replay the whole trail in reverse, restoring the input structure. *)

val num_alive : hierarchy -> int
val trail_length : hierarchy -> int
val is_alive : hierarchy -> int -> bool
val module_area : hierarchy -> int -> int

val live_net_pins : hierarchy -> int -> int array
(** Sorted live pins of net [e] (fresh array).  After {!uncontract_all}
    this must equal the input net's sorted pins for every net. *)
