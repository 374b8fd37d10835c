(** Partition quality metrics over arbitrary k-way assignments.

    Convenience wrappers used by the CLI's [evaluate] command, the
    experiment harness and tests; all metrics are weighted by net weight.
    [side] may use any contiguous part ids [0 .. k-1] (k is inferred). *)

type report = {
  parts : int;
  net_cut : int;  (** nets spanning at least two parts *)
  sum_degrees : int;  (** Σ w(e) (spans(e) - 1), a.k.a. the (K-1) metric *)
  absorbed : int;  (** weighted count of uncut nets *)
  part_areas : int array;
  largest_part : int;
  smallest_part : int;
}

val evaluate : Mlpart_hypergraph.Hypergraph.t -> int array -> report
(** Raises [Invalid_argument] on malformed assignments (wrong length,
    negative ids). *)

val pp : Format.formatter -> report -> unit

val read_assignment : string -> int array
(** Read one part id per line (the format written by the CLI).  Raises
    {!Mlpart_util.Diag.Mlpart_error} with a line-numbered [bad-part]
    diagnostic on malformed input, or an [io-error] one when the file
    cannot be read. *)

val write_assignment : string -> int array -> unit
(** [write_assignment path side] writes one part id per line, the format
    {!read_assignment} reads and every partitioning subcommand's [-o]
    file holds. *)
