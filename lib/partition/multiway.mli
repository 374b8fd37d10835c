(** Sanchis-style multi-way FM (without lookahead), the paper's
    quadrisection refinement engine (§III.C).

    A pass maintains one gain bucket per ordered part pair (p, q); each free
    module has k-1 candidate moves.  The paper reports quadrisection results
    with the sum-of-cluster-degrees gain; the plain net-cut gain is also
    provided.  Modules can be pre-assigned (I/O pads) and are then never
    moved. *)

type objective =
  | Net_cut
  | Sum_degrees
  | Custom of (weight:int -> spans_before:int -> spans_after:int -> int)
      (** the paper's "generic gain computations" [24]: the function
          returns the gain a net contributes to a move that changes its
          spanned-part count as given (positive = improvement).  Must
          return 0 when the spans do not change, and stay within
          [±weight * k] so gains fit the bucket range. *)

type config = { objective : objective; tolerance : float }

val default : config
(** Sum-of-degrees, tolerance 0.1.  Nets of more than
    {!Refine_core.net_threshold} (200) pins are invisible to gains, as in
    {!Fm.default}. *)

type result = {
  side : int array;
  cut : int;  (** weighted count of nets spanning >= 2 parts *)
  sum_degrees : int;
}

type arena
(** Reusable engine scratch (per-run arrays and the k*k direction buckets),
    mirroring {!Fm.arena}: grown on demand, reconfigured per run, threaded
    through multilevel k-way refinement so state is allocated once at the
    finest level's size.  Runs sharing an arena are bit-identical to fresh
    runs.  Not safe to share between domains. *)

val create_arena : unit -> arena

val run :
  ?config:config ->
  ?init:int array ->
  ?fixed:int array ->
  ?arena:arena ->
  Mlpart_util.Rng.t ->
  Mlpart_hypergraph.Hypergraph.t ->
  k:int ->
  result
(** [run rng h ~k] partitions into [k] parts.  [init] refines a given
    assignment (rebalanced first when needed); [fixed.(v) >= 0] pins module
    [v] to a part, and a pinned module starts there whatever [init] says.
    [arena] supplies reusable scratch; without it the run creates its own. *)

val cut_of : Mlpart_hypergraph.Hypergraph.t -> k:int -> int array -> int
(** Weighted multi-way cut of an assignment: {!Kpartition.cut_of}. *)

(** {1 The k-way FM pass}

    {!run} refines with the pass below over its own gains; the n-level
    engine polishes with it over its gain cache.  Both sources move the
    modules of one {!Kpartition.t}, which the pass reads the assignment,
    the part and module areas and [k] from.  Any gain source that can
    report its changes plugs in. *)

type source = {
  gain : int -> int -> int;  (** [gain v q]: gain of moving [v] to part [q] *)
  move : (int -> int -> int -> unit) -> int -> int -> unit;
      (** [move report v q] moves [v] to part [q] in the pass's partition
          and calls [report w r d] for each other module [w] whose
          [gain w r] changed by [d].  Deltas may be split into several
          reports; their order steers the LIFO buckets, so it is part of
          the answer. *)
  undo : int array -> int array -> int -> unit;
      (** [undo vs from len] rolls back a pass's tail of [len] moves in one
          call: each module [vs.(i)], [i < len], listed latest move first,
          returns to part [from.(vs.(i))].  Both arrays are the pass's
          scratch: read them during the call only.  Nothing is
          reported. *)
}

type totals = {
  passes : int;
  moves : int;  (** moves committed, including rolled-back ones *)
  rolled_back : int;  (** moves undone by the passes' final rollbacks *)
}

val refine :
  ?fixed:int array ->
  ?max_passes:int ->
  ?early_exit:int ->
  max_gain:int ->
  arena ->
  Mlpart_util.Rng.t ->
  Kpartition.bounds ->
  Kpartition.t ->
  source ->
  totals
(** [refine ~max_gain arena rng bounds kp src] runs best-prefix passes
    over [src] (Sanchis k-way FM with one LIFO bucket per direction) until
    one gains nothing or [max_passes] (default unbounded) have run, and
    returns their totals.  [src] moves the modules of [kp].  Every
    move leaves its source part at or above [bounds.lo] and its target at
    or below [bounds.hi].  Gains must lie within [±max_gain].  [fixed]
    modules never move.  [early_exit] ends a pass after that many
    consecutive moves that do not beat its best prefix
    ({!Refine_core.run_pass}); without it a pass runs until no feasible
    move is left.  Draws [k * k] generators from [rng]. *)
