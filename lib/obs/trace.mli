(** Structured tracing: a low-overhead span/event recorder.

    Spans and instant events accumulate in per-domain ring buffers —
    {!Mlpart_util.Pool} workers record without taking any lock — and
    export as Chrome trace-event JSON loadable in [chrome://tracing] or
    Perfetto.  Timestamps come from {!Mlpart_util.Clock} (the monotonic
    clock), rebased to the {!enable} call.

    Disabled (the default), every entry point is a null sink: one atomic
    flag read, no clock call, no allocation.  The instrumented hot paths
    of the partitioning pipeline therefore cost one predictable branch per
    pass/level when tracing is off; see the null-sink allocation test.

    Recording is multi-domain safe.  {!events}, {!export} and
    {!export_to_file} must run after parallel work has quiesced (e.g.
    after {!Mlpart_util.Pool.run_job} returned), which every caller in
    the tree does naturally. *)

type arg = Int of int | Float of float | Str of string | Bool of bool
(** Span argument values, rendered into the event's ["args"] object. *)

type event = {
  name : string;
  cat : string;  (** category, e.g. ["fm"], ["coarsen"], ["pool"] *)
  ph : char;  (** trace-event phase: ['X'] complete span, ['i'] instant *)
  ts : int;  (** start, nanoseconds since {!enable} *)
  dur : int;  (** duration in nanoseconds; 0 for instants *)
  tid : int;  (** recording domain id *)
  args : (string * arg) list;
}

val enabled : unit -> bool
(** One atomic read; the gate every recording entry point checks first. *)

val enable : ?capacity:int -> unit -> unit
(** Start a fresh trace session: clears previously collected events,
    rebases the clock, and turns recording on.  [capacity] (default
    [65536]) bounds each domain's ring buffer; when it overflows the
    oldest events are overwritten and {!dropped} counts the loss. *)

val disable : unit -> unit
(** Stop recording.  Collected events remain readable. *)

val reset : unit -> unit
(** Discard collected events and rebase the clock without changing the
    enabled state. *)

val start : unit -> int
(** Monotonic timestamp in nanoseconds for a manual span, or [0] when
    disabled (the clock is not read).  Pair with {!complete}. *)

val complete : ?cat:string -> ?args:(string * arg) list -> string -> int -> unit
(** [complete name t0] records a span from [t0] (a {!start} result) to
    now.  No-op when disabled — but guard the call with {!enabled} at hot
    sites so the [args] list is never built. *)

val span : ?cat:string -> ?args:(unit -> (string * arg) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span; the [args] thunk is evaluated
    once, after [f] returns (or raises — the span is recorded either
    way).  Disabled, this is exactly [f ()]. *)

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit
(** Record a zero-duration marker event. *)

val events : unit -> event list
(** Every retained event, merged across domains and sorted by
    [(ts, tid, name)]. *)

val dropped : unit -> int
(** Events lost to ring-buffer overflow since {!enable}/{!reset}. *)

val to_json : unit -> Json.t
(** Chrome trace-event JSON object: [{"traceEvents": [...],
    "displayTimeUnit": "ms", "otherData": {"dropped": N}}] with [ts]/[dur]
    in microseconds, as the format requires. *)

val export : unit -> string
val export_to_file : string -> unit
