(** Cooperative deadlines on the monotonic {!Clock}.

    A deadline is checked, never enforced: long-running drivers poll
    {!check} at natural safe points (between multi-start runs, between
    V-cycles, between placement regions) and wind down with their best
    result so far when it returns [true].  Nothing is interrupted
    mid-algorithm, so determinism of completed work is unaffected — a
    timed-out run reports exactly the runs that finished.

    A deadline latches: once {!check} has returned [true], {!expired}
    stays [true], so drivers can consult it after the fact to flag the
    result. *)

type t

val make : seconds:float -> t
(** [make ~seconds] is a deadline [seconds] from now.  Non-positive
    [seconds] yields a deadline that is already expired. *)

val check : t -> bool
(** [true] once the clock has passed the deadline (latches). *)

val expired : t -> bool
(** Whether {!check} ever returned [true] (does not itself re-read the
    clock). *)

val remaining : t -> float
(** Seconds until expiry; negative once past. *)
