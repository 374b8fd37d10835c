(** Best of N seeded starts — the one multi-start loop behind the CLI's
    [--runs], the serve daemon's [starts], the multilevel driver's
    coarsest-level starts and the n-level initial partition.

    One generator is split from the caller's per start, all of them before
    the first start runs, so start [i] sees the same stream however the
    starts are scheduled.  The winner is the lowest cut, ties to the lowest
    start index, so the result is bit-identical for any pool size,
    including no pool at all. *)

val best :
  ?pool:Pool.t ->
  ?deadline:Deadline.t ->
  starts:int ->
  cut:('a -> int) ->
  (Rng.t -> 'a) ->
  Rng.t ->
  'a * int
(** [best ~starts ~cut f rng] runs [f] on [max 1 starts] pre-split
    generators and returns the result with the lowest [cut] together with
    the number of starts that completed.

    [pool] (when it has more than one domain) runs starts in parallel; [f]
    must then not use the same pool.  [deadline] is polled between starts,
    or between pool waves of [Pool.size pool] starts: once it has expired
    no further start begins, so the answer is the best of a prefix of the
    untimed schedule.  The first start always completes. *)
