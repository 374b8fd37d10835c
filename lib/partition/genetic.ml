module H = Mlpart_hypergraph.Hypergraph
module Rng = Mlpart_util.Rng

type config = { engine : Fm.config }

let default = { engine = Fm.default }

(* The run's shape: 8 FM-refined solutions, 24 offspring each refined by
   one more descent, and a 2% per-module mutation, so a run costs 32 FM
   descents. *)
let population_size = 8
let generations = 24
let mutation = 0.02

type result = { side : int array; cut : int; evaluations : int }

(* A bipartition equals its complement; flip parent 2 when the parents
   agree on fewer than half the modules so crossover mixes aligned
   solutions. *)
let aligned_copy reference other =
  let n = Array.length reference in
  let agreement = ref 0 in
  for v = 0 to n - 1 do
    if reference.(v) = other.(v) then incr agreement
  done;
  if 2 * !agreement >= n then Array.copy other
  else Array.map (fun s -> 1 - s) other

let crossover rng a b =
  let b = aligned_copy a b in
  Array.mapi (fun v sa -> if Rng.bool rng then sa else b.(v)) a

let mutate rng mutation side =
  Array.iteri
    (fun v s -> if Rng.float rng 1.0 < mutation then side.(v) <- 1 - s)
    side

let run ?(config = default) ?init rng h =
  let evaluations = ref 0 in
  let arena = Fm.create_arena ~h () in
  let descend init =
    incr evaluations;
    let r = Fm.run ~config:config.engine ?init ~arena rng h in
    (r.Fm.side, r.Fm.cut)
  in
  let population =
    Array.init population_size (fun i ->
        if i = 0 && init <> None then descend init else descend None)
  in
  let worst_index () =
    let worst = ref 0 in
    Array.iteri
      (fun i (_, cut) -> if cut > snd population.(!worst) then worst := i)
      population;
    ignore (Array.length population);
    !worst
  in
  let tournament () =
    let a = Rng.int rng population_size in
    let b = Rng.int rng population_size in
    if snd population.(a) <= snd population.(b) then fst population.(a)
    else fst population.(b)
  in
  for _ = 1 to generations do
    let child = crossover rng (tournament ()) (tournament ()) in
    mutate rng mutation child;
    let refined = descend (Some child) in
    let w = worst_index () in
    if snd refined < snd population.(w) then population.(w) <- refined
  done;
  let best = ref 0 in
  Array.iteri
    (fun i (_, cut) -> if cut < snd population.(!best) then best := i)
    population;
  let side, cut = population.(!best) in
  { side; cut; evaluations = !evaluations }
