(** Fixed-size domain pool for deterministic data parallelism.

    A pool owns [jobs - 1] worker domains (spawned once at {!create}) plus
    the calling domain, which participates in every operation.  Work is
    distributed by atomic chunk stealing, but results are always delivered
    in input order, so the outcome of {!map} is independent of how chunks
    land on domains — callers that pre-split their RNG streams per item get
    bit-identical results for any pool size.

    Operations are {e not} reentrant: calling into the same pool from
    inside a [body] or mapped function deadlocks.  Parallelise at one
    level only (the outermost independent loop). *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [max 0 (jobs - 1)] worker domains.  [jobs <= 1]
    yields a sequential pool that runs everything on the caller. *)

val size : t -> int
(** Total parallelism including the calling domain (>= 1). *)

val shutdown : t -> unit
(** Join all worker domains.  The pool must be idle; further use raises. *)

val get : jobs:int -> t
(** Shared process-wide pool, (re)spawned only when the requested size
    changes — the "spawn once" entry point for harness code that is handed
    a jobs count repeatedly.  Not thread-safe; call from the orchestrating
    domain only.  The first call registers an [at_exit] hook that joins the
    shared pool's worker domains at process exit; if a job is still in
    flight at exit time (e.g. SIGTERM during a request) the hook waits a
    bounded ~2 s for it to finish before joining, so an exit that skipped
    {!drain_shared} degrades to a delayed join, not a leaked domain. *)

val drain_shared : unit -> unit
(** Drain-then-exit seam for long-running servers: wait (indefinitely) for
    any in-flight job on the shared {!get} pool to complete, join its
    worker domains, and clear the shared slot so a later {!get} respawns
    fresh.  No-op when no shared pool exists.  Call from a drain path that
    has stopped submitting work, before [exit] — then the [at_exit] join
    finds nothing left to do. *)

val chunk_bounds : n:int -> (int * int) array
(** [chunk_bounds ~n] is the deterministic chunk decomposition of [0, n):
    an array of [(lo, hi)] half-open ranges.  Boundaries are a pure
    function of [n] alone — never of the pool size — which is what makes
    per-chunk aggregation in chunk order independent of [--jobs]. *)

val parallel_chunks : t -> n:int -> body:(slot:int -> lo:int -> hi:int -> unit) -> unit
(** [parallel_chunks t ~n ~body] runs [body ~slot ~lo ~hi] once per chunk
    of {!chunk_bounds}[ ~n].  [slot] identifies the participating domain
    (caller = 0, workers = 1..size-1) and is only safe for indexing
    per-participant scratch whose contents never influence the output —
    which chunk lands on which slot is scheduling-dependent.  Exceptions in
    [body] are re-raised in the caller (first one wins); a raising body
    also flips a shared cancellation flag checked before every chunk, so
    the remaining chunks are abandoned early rather than run to
    completion.  An exception neither deadlocks the pool nor poisons it —
    the next operation on the same pool starts from a clean slate. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] with result order matching input order.  It runs
    on the same work loop as {!parallel_chunks}, one element per chunk, so
    it shares that function's error and cancellation behaviour. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, including on exception. *)
