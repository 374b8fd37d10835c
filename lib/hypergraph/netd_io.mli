(** ACM/SIGDA benchmark netlist format (".net"/".netD" + ".are"), the format
    the paper's 23 circuits ship in (ftp.cbl.ncsu.edu).

    The [.net] file:
    {v
    0
    <num pins>
    <num nets>
    <num modules>
    <pad offset>
    <module> s [dir]     -- pin starting a new net
    <module> l [dir]     -- pin belonging to the current net
    ...
    v}
    Module names are [aN] (cells, N in [0 .. pad_offset]) or [pN] (pads,
    N in [1 ..]).  The optional [.are] file lists "<module> <area>" pairs;
    missing modules default to area 1.

    Having this reader means the reproduction runs on the original
    benchmark files wherever a user has them, with the synthetic suite as
    the offline fallback.

    Like {!Hgr_io}, parsing is total: the {!parse_net_string}-family
    returns typed diagnostics instead of raising.  Duplicate pins within a
    net and single-pin nets are [Warning]s in {e both} modes (the pin-list
    format genuinely encodes them in real benchmarks); malformed module
    names, pad-offset violations, bad pin kinds and count mismatches are
    errors in strict mode and repaired-with-warning in lenient mode.
    Truncated or unreadable headers are fatal in both. *)

type mode = Hgr_io.mode = Strict | Lenient

type parsed = Hgr_io.parsed = {
  hypergraph : Hypergraph.t;
  warnings : Mlpart_util.Diag.t list;
}

val parse_net_string :
  ?name:string -> ?are:string -> mode:mode -> string ->
  (parsed, Mlpart_util.Diag.t list) result
(** Parse a [.net] file's contents (plus optional [.are] contents). *)

val parse_files :
  ?are_path:string -> mode:mode -> string ->
  (parsed, Mlpart_util.Diag.t list) result
(** Read from disk; the hypergraph is named after the net file.  OS-level
    read failures surface as an [io-error] diagnostic. *)

val parse_path :
  mode:mode -> string -> (parsed, Mlpart_util.Diag.t list) result
(** Read a netlist file, choosing the reader by suffix: [.net] and [.netD]
    files through {!parse_files}, with the sibling [.are] (same name,
    [.are] suffix) when it exists; anything else as [.hgr]
    ({!Hgr_io.parse_file}).  The one file loader of the CLI and serve. *)

val read_net_string : ?name:string -> ?are:string -> string -> Hypergraph.t
(** Strict parse; raises {!Mlpart_util.Diag.Mlpart_error} on malformed
    input.  Single-pin nets are dropped, duplicate pins collapsed (with
    warnings discarded). *)

val read_files : ?are_path:string -> string -> Hypergraph.t
(** Strict parse from disk; raises {!Mlpart_util.Diag.Mlpart_error}. *)

val pads : Hypergraph.t -> string -> int list
(** [pads h net_contents] re-parses the pin lines and returns the module
    ids that were pads ([pN] names) — the modules a placement flow should
    pre-place.  (Pad identity is not stored in {!Hypergraph.t}.) *)

val write_net_string : Hypergraph.t -> string
(** Render in [.net] format (all modules as [aN] cells, no directions). *)
