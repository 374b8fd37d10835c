(** The engine registry: every partitioner behind one record, consumed
    alike by the CLI, the experiment tables, [mlpart selfcheck], the bench
    kernels and the examples.

    Names are the CLI's [--engine] vocabulary: [fm] and [clip] are the
    multilevel driver with an FM or CLIP engine (the paper's MLf and MLc),
    [flat-*] skip the hierarchy, and the k-way engines are [nlevel], [rb],
    [multiway] (level-batched multilevel k-way) and the flat or LSMC k-way
    FM variants. *)

type arity =
  | Exactly of int
  | Power_of_two  (** any power of two >= 2 *)
  | Any  (** any k >= 2 *)

type t = {
  name : string;  (** stable id: [--engine] value and property name *)
  arity : arity;  (** the part counts [k] the engine accepts *)
  balanced : bool;
      (** the 2-way answer always satisfies the paper's balance bound at
          the requested tolerance ({!Mlpart_partition.Bipartition.bounds});
          KL and the k-way engines promise nothing *)
  fixed : bool;  (** [run ~fixed] is honoured; otherwise it raises *)
  run :
    ?fixed:int array ->
    ?pool:Mlpart_util.Pool.t ->
    tolerance:float ->
    Mlpart_util.Rng.t ->
    Mlpart_hypergraph.Hypergraph.t ->
    k:int ->
    int array * int;
      (** [run ?fixed ?pool ~tolerance rng h ~k] returns (part of each
          module, cut).  [fixed.(v) >= 0] pins module [v] to that part
          ([Invalid_argument] when the engine has no [fixed] support).
          [pool] parallelises the run internally where the engine can
          (ML and rb); results are bit-identical without it.  [k] must be
          accepted by [arity]; 2-way engines ignore it.  Engines without a
          balance tolerance (KL, spectral, GORDIAN) ignore [tolerance]. *)
}

val accepts : t -> int -> bool
(** Whether the engine's [arity] admits this [k]. *)

val arity_doc : arity -> string
(** ["a power-of-two k"], ["k = 4"], ... for usage messages. *)

val all : ?ratio:float -> ?threshold:int -> unit -> t list
(** Every registered engine, in a fixed order.  [ratio] and [threshold]
    configure the multilevel constructors ([fm], [clip] and, for [ratio],
    [multiway]); each defaults to its configuration's own value.  LSMC
    runs 20 descents and the V-cycle entry 2 cycles. *)

val find : ?ratio:float -> ?threshold:int -> string -> t option
(** The entry of {!all} with this name. *)

(** {1 Constructors} *)

val ml : ?cycles:int -> string -> Mlpart_multilevel.Ml.config -> t
(** The multilevel driver under a custom configuration, followed by
    [cycles - 1] V-cycles (default 1: a plain run). *)

val mlf : ?threshold:int -> float -> t
(** [fm]: ML with the FM engine at matching ratio [r]. *)

val mlc : ?threshold:int -> float -> t
(** [clip]: ML with the CLIP engine at matching ratio [r]. *)

val flat_fm : t
(** Plain FM, LIFO buckets. *)

val flat_fm_fifo : t
val flat_fm_random : t
val flat_clip : t

val eig : t
(** Pure spectral bisection (deterministic). *)

val eig_fm : t
(** Spectral bisection followed by FM refinement. *)

val cl_la3f : t
(** CLIP with level-3 lookahead, followed by an FM refinement run (the
    [f] subscript of the paper's Table VII). *)

val cd_la3f : t
(** CDIP (CLIP + backtracking) with level-3 lookahead, FM-refined. *)

val cl_prf : t
(** CLIP-flavoured PROP, FM-refined. *)

val prop : t
(** Plain PROP. *)

val lsmc : int -> t
(** LSMC with FM descents; the argument is the number of descents. *)

val ga_fm : t
(** Hybrid genetic/FM (the Bui–Moon-style evolution behind the GMet
    column's genetic component). *)

val kl : t
(** Kernighan–Lin pair swaps (beam-pruned) — the §I ancestor baseline. *)

val two_phase : t
(** Classic "two-phase FM": a single Match clustering level, then CLIP —
    the §II.C baseline the multilevel approach generalises. *)

val mlc_vcycles : int -> t
(** MLc (R = 0.5) followed by V-cycles, the given number of cycles in all
    (extension). *)

val nlevel : t
(** Direct k-way n-level engine. *)

val rb : t
(** Recursive ML bisection (power-of-two k). *)

val multiway : float -> t
(** Level-batched multilevel k-way at matching ratio [r], sum-of-degrees
    gain; at R = 1.0 and k = 4 it is the paper's Table IX MLf. *)

val flat_kway_fm : t
(** Flat k-way FM (Sanchis, net-cut gain). *)

val flat_kway_soed : t
(** Flat k-way FM with sum-of-degrees gain (the CLIP-flavoured column). *)

val lsmc_kway_fm : t
(** LSMC over flat k-way FM: kick the best solution and re-descend. *)

val lsmc_kway_soed : t
(** LSMC over the sum-of-degrees k-way engine. *)

val gordian : t
(** GORDIAN-style analytic quadrisection (k = 4, deterministic; the RNG is
    unused). *)
