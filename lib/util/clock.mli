(** The program's one clock: monotonic, so a wall-clock jump (NTP step,
    manual change) can neither expire a deadline early nor make a timing
    negative.  Trace timestamps, deadlines, the pool's patience timer and
    serve's queue-wait and elapsed times all read it.  The experiment
    tables' CPU seconds ([Sys.time]) and the date stamp of a benchmark
    snapshot are not durations on this clock and do not. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed origin ([CLOCK_MONOTONIC]). *)
