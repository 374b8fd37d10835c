(** Measurement harness: repeated runs, aggregated the way the paper's
    tables report them (min cut, average cut, standard deviation, total CPU
    seconds). *)

type measurement = {
  min_cut : int;
  avg_cut : float;
  std_cut : float;
  cpu : float;  (** total processor seconds over all runs *)
  runs : int;
}

val measure :
  ?jobs:int ->
  ?k:int ->
  runs:int ->
  seed:int ->
  Mlpart_hypergraph.Hypergraph.t ->
  Algos.t ->
  measurement
(** Run an engine [runs] times into [k] parts (default 2) with independent
    generators derived from [seed], at the paper's tolerance r = 0.1;
    every run's cut is verified against a from-scratch recount.  [jobs > 1]
    spreads the runs over that many domains (OCaml 5 parallelism); the
    per-run generators are pre-split from [seed] first, so the statistics
    are identical for any job count.  The [cpu] field stays the summed
    processor time. *)

val cell : int option -> string
(** Render an optional published value ("-" when the paper leaves the cell
    blank). *)

val fcell : float option -> string
