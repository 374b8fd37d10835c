(** The serve-mode execution engine: a bounded work queue in front of
    worker domains, with admission control, per-job deadline budgets,
    crash isolation with retry, deterministic fault injection and the
    content-addressed hierarchy cache.

    The engine is transport-agnostic — it consumes raw request lines and
    produces {!Protocol.response} values — so the soak and admission tests
    drive it in-process while {!Server} puts it behind a socket.

    {b Request ledger.}  Every line handed to {!submit_line} increments
    [serve.requests.received] and reaches exactly one terminal counter:
    [serve.requests.completed] (ok and degraded answers, pings, stats),
    [serve.requests.rejected] (admission shed it), or
    [serve.requests.failed] (parse failure or a worker failure after
    retries).  The fault-injection soak asserts this balance exactly.

    {b Determinism.}  A response's partition is a pure function of the
    request (netlist, seed, starts, tolerance) and the engine's coarsening
    configuration: hierarchies are coarsened with a generator derived from
    the netlist fingerprint and [coarsen_seed] — never from the request
    seed — so a cache hit is bit-identical to the cold run that would have
    rebuilt it.  Deadline expiry only trims whole starts off the end of
    the schedule (at least one always completes). *)

type config = {
  workers : int;  (** worker domains executing jobs (>= 1) *)
  jobs : int;
      (** intra-job {!Mlpart_util.Pool} parallelism; honoured only with a
          single worker (the pool is not reentrant across workers) *)
  queue_capacity : int;  (** pending jobs beyond this are shed *)
  client_inflight : int;  (** max queued+running jobs per client id *)
  cache_capacity : int;  (** resident hierarchies (LRU beyond this) *)
  coarsen_seed : int;  (** seed of the content-keyed coarsening streams *)
  max_retries : int;  (** retries for transient worker crashes *)
  retry_base_ms : int;  (** decorrelated-jitter backoff base *)
  retry_cap_ms : int;  (** backoff cap *)
  default_timeout_ms : int option;  (** deadline for requests without one *)
  faults : Faults.config;  (** injection profile; {!Faults.none} in prod *)
}

val default : config
(** 1 worker, queue 64, 16 in-flight per client, cache 32, 2 retries,
    no default deadline, no faults.  Every request runs MLc
    ({!Mlpart_multilevel.Ml.mlc}) at the request's tolerance. *)

type t

val create : ?config:config -> unit -> t
(** Spawn the worker domains and enable metrics recording. *)

val config : t -> config

type ticket
(** A pending answer; resolve with {!wait}. *)

type outcome =
  | Queued of ticket  (** admitted; the answer arrives asynchronously *)
  | Reply of Protocol.response
      (** answered inline: control queries, parse failures, rejections *)

val submit_line : t -> string -> outcome
(** Decode and admit one request line.  Never raises; hostile bytes cost
    a [failed] reply.  When fault injection is active, the line may be
    deterministically garbled first (parse-fault class). *)

val wait : ticket -> Protocol.response
(** Block until the job completes.  Thread-safe. *)

val drain : t -> unit
(** Drain-then-exit: stop admitting ([rejected] with a [queue-full]
    retry-after diagnostic), wait until the queue and all in-flight jobs
    finish, join the worker domains, then join the shared intra-job pool
    via {!Mlpart_util.Pool.drain_shared} — in that order, so a SIGTERM
    during an in-flight job can never leak a domain.  Idempotent. *)

val stats_json : t -> Mlpart_obs.Json.t
(** Live [/stats] payload: queue depth, in-flight count, accepting flag,
    cache occupancy, and the full metrics registry export. *)
