(** Engine-agnostic FM move loop: the best-prefix pass schedule shared by
    four clients: the bipartitioning engine ([Fm]), the k-way pass
    ([Multiway.refine], which the n-level engine's polish also runs), PROP
    ([Prop]) and Kernighan–Lin ([Kl]).

    A pass repeatedly asks the host engine for its best feasible candidate,
    commits it, and tracks the cumulative gain; the longest prefix with the
    highest cumulative gain is kept and everything after it undone.  The
    host engine owns all partition/gain/bucket state and exposes it through
    the four {!ops} callbacks; this module owns only the move stack and the
    prefix arithmetic, so its semantics (early exit, CDIP-style bounded
    backtracking, final rollback) are identical across engines.  A
    candidate is any non-negative int the host can decode: a module for
    [Fm] and [Prop], (module * k) + target part for [Multiway], and a swap
    (a * n) + b for [Kl]. *)

val net_threshold : int
(** 200: nets with more pins are invisible to every FM-family gain
    ([Fm.default], [Prop], [Kl], [Multiway], [Gain_cache]) but still
    counted in the cut.  One move almost never uncuts such a net, and its
    pins would dominate every gain update. *)

type ops = {
  select : unit -> int;
      (** Best feasible candidate, or a negative value when none remains.
          Called once per move attempt. *)
  commit : int -> int;
      (** Lock the candidate, apply its move, and return the gain credited
          to the cumulative total. *)
  undo : lo:int -> hi:int -> unit;
      (** Revert the committed moves [order.(hi - 1)] down to [order.(lo)],
          latest first, in one call, so a host can batch the tail's state
          updates (partition state only; selection structures are rebuilt
          by the host, not restored).  The range may be empty. *)
  rebuild : first_bad:int -> kept:int -> unit;
      (** After a backtrack undid the losing streak: [first_bad] is the
          first module of the undone streak (hosts typically freeze it for
          the rest of the pass) and [kept] the number of moves retained at
          the front of the order stack.  The host re-locks the kept prefix
          and rebuilds its selection structures. *)
}

type pass = {
  gain : int;  (** cumulative gain of the kept prefix *)
  moves : int;  (** moves committed, including later-undone ones *)
  rolled_back : int;  (** moves undone by the final rollback *)
}

val run_pass :
  order:int array -> ?early_exit:int -> ?backtrack:int * int -> ops -> pass
(** One pass.  [order] is the host-provided move stack (sized to the module
    count; entry [i] is the [i]-th committed move, so hosts can re-lock the
    kept prefix in {!ops.rebuild}).  [early_exit] stops the pass after that
    many consecutive non-improving moves; [backtrack = (window, limit)]
    instead undoes the streak once it reaches [window] moves, up to [limit]
    times per pass, calling {!ops.rebuild} after each. *)

val drive : max_passes:int -> (pass:int -> pass) -> int * int
(** Run passes (1-numbered) until one yields no gain or [max_passes] is
    reached; returns [(passes, total_moves)]. *)
