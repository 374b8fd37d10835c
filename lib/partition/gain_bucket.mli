(** FM gain-bucket structure with pluggable tie-breaking policy.

    An array of buckets indexed by gain, each holding an intrusive doubly
    linked list of module ids.  All operations except [Random] selection are
    O(1) plus max-index maintenance.  The tie-breaking policy decides which
    module of the highest non-empty bucket is returned:

    - [Lifo]: most recently inserted (the organisation the paper adopts);
    - [Fifo]: least recently inserted;
    - [Random]: uniform over the bucket (costs a scan of that bucket).

    This is the data structure whose LIFO/FIFO/Random comparison the paper
    reproduces in Table II.

    Clearing is epoch-stamped: {!clear} bumps a generation counter and every
    accessor lazily treats stale buckets as empty, so the per-pass reset of
    an FM run is O(1) instead of O(capacity + gain-range).  Per-bucket
    length counters make [Random] selection a single list walk. *)

type policy = Lifo | Fifo | Random

val policy_to_string : policy -> string

type t

val create :
  ?rng:Mlpart_util.Rng.t -> policy:policy -> min_gain:int -> max_gain:int ->
  capacity:int -> unit -> t
(** [create ~policy ~min_gain ~max_gain ~capacity ()] supports module ids
    [0 .. capacity-1] and gains in [[min_gain, max_gain]].  [rng] is required
    only for the [Random] policy (defaults to a fixed-seed generator). *)

val reinit :
  ?rng:Mlpart_util.Rng.t -> policy:policy -> min_gain:int -> max_gain:int ->
  capacity:int -> t -> unit
(** Reconfigure the structure in place for a new run: adopts the given
    policy, gain range and (for [Random]) generator, grows the backing
    arrays if the new capacity or range exceeds what was ever allocated,
    and clears.  Reusing one structure across the runs of a multilevel
    refinement sweep avoids re-allocating the bucket arena at every level;
    a reinitialised structure behaves exactly like a fresh {!create}. *)

val clear : t -> unit
(** Empty the structure (O(1): epoch bump; stale state is invalidated lazily
    on access). *)

val size : t -> int
(** Number of modules currently stored. *)

val is_empty : t -> bool

val contains : t -> int -> bool

val gain_of : t -> int -> int
(** Current gain key of a stored module.  Undefined for absent modules. *)

val insert : t -> int -> int -> unit
(** [insert t v g] adds module [v] with gain [g].
    @raise Invalid_argument ["Gain_bucket.insert: gain g outside [lo, hi]"]
    when [g] is out of range, and
    ["Gain_bucket.insert: module already present"] when [v] is stored. *)

val remove : t -> int -> unit
(** Remove a stored module.  No-op if absent. *)

val adjust : t -> int -> int -> unit
(** [adjust t v delta] shifts a stored module's gain by [delta], reinserting
    it at the position the policy dictates for fresh insertions (as in the
    original FM implementation).
    @raise Invalid_argument ["Gain_bucket.adjust: module absent"] when [v]
    is not stored, and ["Gain_bucket.adjust: gain g outside [lo, hi]"]
    when the new gain [g] is out of range; either way [t] is unchanged. *)

val select_max : t -> (int * int) option
(** Identity and gain of the module the policy picks from the highest
    non-empty bucket, without removing it. *)

val select_satisfying : t -> (int -> bool) -> int
(** Like {!select_max} but returns the best stored module satisfying the
    predicate, or -1 when none does: buckets are scanned downwards and,
    within a bucket, in policy order.  Used for balance-feasible
    selection; cost is proportional to the number of rejected candidates,
    and nothing is allocated.  The winner's key is available via
    {!gain_of}. *)

val draws_on_select : t -> bool
(** Does {!select_satisfying} draw from the generator?  True under
    [Random], which draws once per non-empty bucket it visits even when
    the predicate rejects every module.  A caller that knows the predicate
    rejects every stored module may skip the call, in O(1) and without
    changing any later result, exactly when this is false. *)

val pop_max : t -> (int * int) option
(** {!select_max} followed by removal. *)

val max_key : t -> int option
(** Highest gain currently stored, if any. *)

val iter_key : t -> int -> (int -> unit) -> unit
(** [iter_key t g f] applies [f] to every stored module with gain [g], in
    policy selection order (front of the bucket first).  Used by lookahead
    tie-breaking to enumerate equal-key candidates. *)
