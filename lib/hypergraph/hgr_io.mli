(** hMETIS / PaToH-style [.hgr] hypergraph exchange format.

    Format (1-indexed, as emitted by hMETIS):
    {v
    % comment lines start with %
    <num_nets> <num_modules> [fmt]
    <net 1 pins...>          (weight-prefixed when fmt has the 1-bit)
    ...
    [module weights, one per line, when fmt has the 10-bit]
    v}
    [fmt] is omitted or one of [1] (net weights), [10] (module weights),
    [11] (both).

    Parsing never raises on malformed bytes: the {!parse}-family entry
    points return a [result] whose [Error] side is an ordered list of
    typed diagnostics ({!Mlpart_util.Diag.t}), one per problem found —
    strict mode scans the whole file and reports every issue, not just the
    first.  The legacy {!read_file}/{!of_string} wrappers parse strictly
    and raise {!Mlpart_util.Diag.Mlpart_error} instead. *)

type mode =
  | Strict
      (** any degenerate input — out-of-range or duplicate pins, nets with
          fewer than two distinct pins, bad weights, truncation — is an
          error.  A clean file parses to exactly the same hypergraph as
          before this API existed. *)
  | Lenient
      (** degenerate input is repaired in place (pins dropped or
          collapsed, weights and areas clamped, degenerate nets removed,
          missing sections defaulted) and reported as [Warning]
          diagnostics carrying the original net index and source line.
          Only an unusable header is fatal.  The resulting hypergraph
          additionally passes {!Hypergraph.validate} — the repair pass
          runs automatically. *)

type parsed = {
  hypergraph : Hypergraph.t;
  warnings : Mlpart_util.Diag.t list;  (** ordered as encountered; empty in strict mode *)
}

val parse :
  name:string -> mode:mode -> (unit -> string option) ->
  (parsed, Mlpart_util.Diag.t list) result
(** Parse from a line producer (the closure returns [None] at EOF). *)

val parse_string :
  ?name:string -> mode:mode -> string -> (parsed, Mlpart_util.Diag.t list) result

val parse_file : mode:mode -> string -> (parsed, Mlpart_util.Diag.t list) result
(** Parse from disk; the hypergraph is named after the file's basename.
    OS-level read failures surface as an [io-error] diagnostic, not an
    exception. *)

val read_file : string -> Hypergraph.t
(** Strict parse from a file; raises {!Mlpart_util.Diag.Mlpart_error}. *)

val of_string : ?name:string -> string -> Hypergraph.t
(** Strict parse of a string; raises {!Mlpart_util.Diag.Mlpart_error}. *)

val write_channel : out_channel -> Hypergraph.t -> unit
(** Emit in [.hgr] format.  Net weights are written when any weight differs
    from 1, module weights when any area differs from 1. *)

val write_file : string -> Hypergraph.t -> unit

val to_string : Hypergraph.t -> string
(** [.hgr] rendering as a string (used by tests and small examples). *)
