(** The property suite: exact-oracle checks per engine plus metamorphic
    laws over the whole pipeline.

    Oracle properties are generated over the engine registry
    ({!Mlpart_experiments.Algos}).  [oracle/<engine>] asserts, per
    generated instance and a k the engine accepts: the reported cut equals
    a from-scratch [Objective] recount, the output satisfies the balance
    bound when the engine promises it, and the cut is no better than the
    enumerated optimum over the engine's feasible set — a reported cut
    {e below} the optimum is exactly what a bucket-discipline or rollback
    bug looks like.  [fixed/<engine>], for every 2-way-capable engine that
    honours fixed modules, adds random pins: they must survive to the
    output and the optimum is taken over assignments honouring them.

    Law properties ([laws/...]) assert behavioural symmetries that need no
    oracle: relabeling invariance, net-weight scaling, duplicate-net merge
    equivalence (Definition 1), coarsen-then-project cut conservation,
    V-cycle monotonicity, jobs invariance, [validate]/[repair]
    idempotence, the n-level memento round trip and gain-cache
    exactness. *)

val oracle_properties : Property.packed list
(** [oracle/<name>] for every registry entry, then [fixed/<name>] for
    every entry with fixed-module support that accepts k = 2.  Multilevel
    entries coarsen to threshold 4, so tiny instances still run through
    real levels. *)

val law_properties : Property.packed list

val all : Property.packed list
(** [oracle_properties @ law_properties]; names are unique. *)

val find : string -> Property.packed option
