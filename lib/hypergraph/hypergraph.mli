(** Netlist hypergraphs.

    A netlist hypergraph [H(V, E)] has modules (cells) [0 .. num_modules-1]
    and nets; a net is a set of at least two distinct modules (its pins).
    Modules carry positive areas, nets carry positive integer weights
    (weights arise when coarsening merges duplicate nets; flat input netlists
    have unit weights).

    The representation is a compact CSR (compressed sparse row) in both
    directions — pins of each net and nets of each module — so that the
    inner loops of FM-style partitioners touch contiguous memory.  Values
    are immutable after construction; use {!Builder} to create them. *)

type t

(** {1 Sizes} *)

val num_modules : t -> int
val num_nets : t -> int

val num_pins : t -> int
(** Total pin count: sum over nets of net size. *)

(** {1 Modules} *)

val area : t -> int -> int
(** [area h v] is the area of module [v].  Unit areas for flat netlists. *)

val total_area : t -> int
(** Sum of all module areas. *)

val min_area : t -> int
(** Smallest single module area ([0] for a netlist without modules).  A
    balance budget below it admits no move at all, which lets FM selectors
    skip a whole direction bucket in O(1). *)

val max_area : t -> int
(** Largest single module area (the "A(v max)" of the paper's balance rule). *)

val module_degree : t -> int -> int
(** Number of nets incident to a module. *)

val nets_of : t -> int -> int array
(** [nets_of h v] is the array of net ids incident to module [v].  The
    returned array is a fresh copy; prefer {!iter_nets_of} in hot loops. *)

val iter_nets_of : t -> int -> (int -> unit) -> unit
(** Iterate net ids incident to a module without allocating. *)

val fold_nets_of : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

(** {1 Nets} *)

val net_size : t -> int -> int
(** Number of pins of a net (>= 2). *)

val net_weight : t -> int -> int
(** Weight of a net (>= 1). *)

val pins_of : t -> int -> int array
(** Fresh copy of a net's pins; prefer {!iter_pins_of} in hot loops. *)

val iter_pins_of : t -> int -> (int -> unit) -> unit

val fold_pins_of : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

val net_offset : t -> int -> int
(** Global pin-slot index of a net's first pin: the pins of net [e] occupy
    slots [net_offset h e .. net_offset h e + net_size h e - 1].  Engines
    use slots to key per-pin side tables (e.g. cached gain contributions). *)

val pin_at : t -> int -> int
(** Module id stored at a global pin slot. *)

(** {1 Raw CSR views}

    Direct references to the internal CSR arrays, for refinement-engine
    inner loops where even the accessor-call overhead of {!net_offset} /
    {!pin_at} is measurable.  The arrays are the live representation —
    treat them as strictly read-only. *)

val net_offsets_store : t -> int array
(** Length [num_nets + 1]; net [e]'s pins live at slots
    [net_offsets.(e) .. net_offsets.(e+1) - 1] of {!net_pins_store}. *)

val net_pins_store : t -> int array
(** Module id per global pin slot. *)

val net_weights_store : t -> int array
(** Weight per net. *)

val mod_offsets_store : t -> int array
(** Length [num_modules + 1]; module [v]'s incident nets live at slots
    [mod_offsets.(v) .. mod_offsets.(v+1) - 1] of {!mod_nets_store}. *)

val mod_nets_store : t -> int array
(** Net id per module-incidence slot. *)

val areas_store : t -> int array
(** Area per module. *)

(** {1 Whole-graph queries} *)

val max_module_degree : t -> int
(** Largest number of incident nets over all modules. *)

val max_weighted_degree : t -> int
(** Largest sum of incident net weights over all modules: an upper bound on
    any FM gain, used to size gain-bucket arrays. *)

val total_net_weight : t -> int

val name : t -> string
(** Optional human-readable identifier (benchmark name); [""] if unset. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: name, module/net/pin counts. *)

(** {1 Construction} *)

val make :
  ?name:string ->
  areas:int array ->
  nets:(int array * int) array ->
  unit ->
  t
(** [make ~areas ~nets ()] builds a hypergraph with [Array.length areas]
    modules.  Each element of [nets] is [(pins, weight)].  Raises
    [Invalid_argument] if any net has fewer than two distinct pins, a pin is
    out of range or repeated within a net, an area is non-positive, or a
    weight is non-positive. *)

val make_unchecked :
  ?name:string ->
  areas:int array ->
  nets:(int array * int) array ->
  unit ->
  t
(** Like {!make} but with no degeneracy validation: duplicate pins,
    empty/singleton nets and non-positive areas or weights survive into
    the value.  Pins must still be in range (the CSR build indexes by pin
    id; out-of-range pins raise [Invalid_argument]).  Used by lenient
    ingestion and by tests of {!validate}/{!repair}; anything built this
    way must be repaired before reaching a partitioning engine. *)

val validate : t -> (unit, Mlpart_util.Diag.t list) result
(** Check the engine-facing invariants ({!make} enforces them,
    {!make_unchecked} does not): positive areas and weights, every net
    with at least two distinct pins.  Returns all violations as
    [Error]-severity diagnostics whose [source] is the hypergraph name. *)

type repair_report = {
  dropped_nets : int;  (** empty or singleton (after pin dedup) nets removed *)
  deduped_pins : int;  (** duplicate pin slots collapsed *)
  clamped_areas : int;  (** non-positive areas raised to 1 *)
  clamped_weights : int;  (** non-positive net weights raised to 1 *)
  repair_diags : Mlpart_util.Diag.t list;
      (** one [Warning] per individual fix, in net/module order *)
}

val repair : t -> t * repair_report
(** [repair t] rebuilds [t] with every {!validate} violation fixed: pins
    deduplicated, empty and singleton nets dropped, non-positive areas and
    weights clamped to 1.  The result always satisfies {!validate}; on an
    already-valid input it is structurally identical and the report is all
    zeros.  Net order (among survivors) and module ids are preserved. *)

type arena
(** Reusable scratch for {!induce}: per-domain mark, stamp and pin-run
    buffers and the duplicate-net hash table.  One arena threaded through a
    coarsening loop makes every level's induce allocation-free apart from
    the coarse CSR arrays themselves.  An arena may be reused freely across
    hypergraphs of any size and pools of any size (it grows on demand and
    never needs resetting), but one induce call at a time. *)

val create_arena : unit -> arena

val induce :
  ?name:string ->
  ?merge_duplicates:bool ->
  ?arena:arena ->
  ?pool:Mlpart_util.Pool.t ->
  t ->
  int array ->
  t * int
(** [induce h cluster_of] builds the coarser hypergraph induced by the
    clustering that maps module [v] to cluster [cluster_of.(v)] (Definition 1
    of the paper): cluster areas are summed, each net projects to the set of
    clusters it spans and is dropped if that set is a singleton.  Cluster ids
    must form a contiguous range [0 .. k-1].

    When [merge_duplicates] is [true] (default [false], the paper's literal
    Definition 1 keeps duplicates), coarse nets spanning identical cluster
    sets are merged in first-occurrence order and their weights summed.

    The coarse net order is the fine net order (restricted to surviving
    nets) and each coarse net's pins are sorted ascending.  The coarse CSR
    is emitted directly: a counting scan, a prefix sum that places every
    net, then a scan that writes each sorted pin run into its slot, and the
    duplicate merge as a post-pass.  Pass [arena] to reuse scratch across
    calls (see {!create_arena}).

    With a [pool] of more than one domain both scans and the merge's
    hashing run on {!Mlpart_util.Pool.parallel_chunks}; otherwise they run
    as one range.  The output is identical for every pool size.

    Returns the coarse hypergraph and [k], the number of clusters. *)

val induce_reference :
  ?name:string -> ?merge_duplicates:bool -> t -> int array -> t * int
(** Simple list-based implementation of exactly the same function, kept as
    the oracle for property tests of the CSR fast path.  Slower; do not use
    in production paths. *)
