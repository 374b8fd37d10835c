(** Spectral (EIG) bipartitioning — the classical baseline the paper's
    competitors measure themselves against (Hagen–Kahng ratio-cut spectral
    methods [18]; PARABOLI is introduced as "50% better than spectral
    bisection").

    The netlist is expanded to a weighted graph with the same clique/chain
    model as {!Quadratic}; the Fiedler vector (eigenvector of the second
    smallest Laplacian eigenvalue) is computed by shifted power iteration
    with deflation of the constant vector, and the module ordering it
    induces is split at the area median.  The classic two-phase EIG+FM
    runs FM from this split ([Algos.eig_fm]).

    Power iteration stops after 500 steps or at a tolerance of 1e-7. *)

type result = {
  side : int array;
  cut : int;
  fiedler : float array;  (** the computed eigenvector (unit norm) *)
  iterations_used : int;
}

val run : Mlpart_hypergraph.Hypergraph.t -> result
(** Deterministic (the iteration starts from a fixed pseudo-random vector).
    On disconnected netlists the leading non-constant eigenvector separates
    components, which is the natural spectral behaviour. *)
