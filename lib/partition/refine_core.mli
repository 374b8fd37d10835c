(** Engine-agnostic FM move loop: the best-prefix pass schedule shared by
    the bipartitioning engine ([Fm]) and the k-way pass
    ([Multiway.refine], which the n-level engine's polish also runs).

    A pass repeatedly asks the host engine for its best feasible candidate,
    commits it, and tracks the cumulative gain; the longest prefix with the
    highest cumulative gain is kept and everything after it undone.  The
    host engine owns all partition/gain/bucket state and exposes it through
    the four {!ops} callbacks; this module owns only the move stack and the
    prefix arithmetic, so its semantics (early exit, CDIP-style bounded
    backtracking, final rollback) are identical across engines. *)

type ops = {
  select : unit -> int;
      (** Best feasible candidate, or a negative value when none remains.
          Called once per move attempt. *)
  commit : int -> int;
      (** Lock the candidate, apply its move, and return the gain credited
          to the cumulative total. *)
  undo : int -> unit;
      (** Revert one committed move (partition state only; selection
          structures are rebuilt by the host, not restored). *)
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
