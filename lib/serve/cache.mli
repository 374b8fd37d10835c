(** Bounded LRU cache of coarsening hierarchies, keyed by netlist content.

    The million-user access pattern the daemon serves is many queries
    against few designs (different seeds, tolerances, start counts); the
    coarsening hierarchy depends on none of those, so repeated queries
    skip straight to initial partitioning + refinement.  Keys must encode
    everything the hierarchy {e does} depend on that varies between
    lookups — which is what makes a hit bit-identical to a cold run.  In
    {!Engine} that is the netlist {!fingerprint} alone: the coarsening
    parameters (MLc) and the coarsening seed are fixed for the engine's
    lifetime, and one cache belongs to one engine.

    Every entry carries a structural checksum taken at insert time and
    re-verified on lookup: a corrupted entry (bit rot, a buggy mutation
    through the shared value) is detected, dropped and recomputed — never
    served.  All operations are mutex-guarded; worker domains share one
    cache.  Hits, misses, evictions and corruption detections count into
    {!Mlpart_obs.Metrics} as [serve.cache.*]. *)

type t

val create : capacity:int -> t
(** [capacity] is the maximum number of resident hierarchies (>= 1). *)

val fingerprint : Mlpart_hypergraph.Hypergraph.t -> int64
(** FNV-1a content hash over the CSR representation (areas, net offsets,
    pins, weights) — the netlist part of a cache key.  Names are excluded:
    identical structure hashes identically whatever it is called. *)

val checksum : Mlpart_multilevel.Hierarchy.t -> int64
(** Structural checksum of a hierarchy (cluster maps, fixed assignments,
    every level's CSR).  Exposed for the corruption tests. *)

type lookup =
  | Hit of Mlpart_multilevel.Hierarchy.t
  | Miss
  | Corrupt  (** checksum mismatch; the entry was evicted, rebuild it *)

val find : t -> string -> lookup
(** Verified lookup; a [Hit] refreshes the entry's recency. *)

val add : t -> string -> Mlpart_multilevel.Hierarchy.t -> unit
(** Insert (or replace) an entry, evicting the least-recently-used one
    when at capacity.  Each eviction emits a [cache-evicted] warning
    diagnostic into the metrics registry. *)

val length : t -> int
val capacity : t -> int
