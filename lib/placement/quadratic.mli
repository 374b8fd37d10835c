(** Quadratic (analytical) placement substrate for the GORDIAN baseline.

    Minimises the squared-wirelength objective [x' L x] over the free
    modules, with selected modules fixed (the I/O pads GORDIAN pre-places).
    Nets are expanded with the standard clique model — every pin pair of a
    net [e] gets an edge of weight [2 w(e) / |e|] — with a chain fallback
    for very large nets to keep the Laplacian sparse.  The linear system
    [L_ff x_f = -L_fp x_p] is solved by Jacobi-preconditioned conjugate
    gradients. *)

type t
(** Sparse symmetric Laplacian system built from a hypergraph. *)

type laplacian = {
  diag : float array;  (** weighted degree of each row *)
  row_offsets : int array;
      (** row [i] spans [row_offsets.(i)] .. [row_offsets.(i + 1) - 1] *)
  col : int array;  (** column of each off-diagonal entry *)
  weight : float array;  (** coupling weight of each off-diagonal entry *)
}
(** A Laplacian in compressed sparse rows: the diagonal apart, each coupled
    pair stored once in each of its two rows.  [diag], [col] and [weight]
    keep at least one slot each, so a matrix with no rows or no couplings
    carries one unused entry. *)

val laplacian : Mlpart_hypergraph.Hypergraph.t -> laplacian
(** [laplacian h] is the whole-netlist Laplacian of the net model, with no
    module fixed: row [v] is module [v], and [diag.(v)] sums row [v]'s
    weights in row order.  {!Spectral} iterates on it; {!build} assembles
    the same matrix restricted to the free modules. *)

val build :
  ?clique_limit:int ->
  Mlpart_hypergraph.Hypergraph.t ->
  fixed:(int * float) list ->
  t
(** [build h ~fixed] prepares the system for one axis: [fixed] lists
    [(module, coordinate)] pins.  Nets larger than [clique_limit] pins
    (default 32) use the chain model.  At least one module must be fixed
    (otherwise the quadratic form is singular); raises [Invalid_argument]
    if [fixed] is empty. *)

val solve : ?tol:float -> ?max_iter:int -> t -> float array
(** Coordinates for all modules (fixed ones at their pinned positions).
    Defaults: [tol = 1e-7] (relative residual), [max_iter = 1000]. *)

val residual : t -> float array -> float
(** Relative residual norm of a solution — used by tests. *)

val median_split : Mlpart_hypergraph.Hypergraph.t -> int array -> int
(** [median_split h order] is the equal-area split of a module ordering:
    the length of the shortest prefix of [order] holding at least half of
    [order]'s area.  {!Spectral} splits its Fiedler ordering with it and
    {!Gordian} its coordinate orderings. *)

val hpwl : Mlpart_hypergraph.Hypergraph.t -> x:float array -> y:float array -> float
(** Weighted half-perimeter wirelength of a 2-D placement. *)
