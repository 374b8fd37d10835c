(* Order statistics shared by the run summaries, the kernel tier and the
   compare gate.  [quartiles] reproduces Python's
   [statistics.quantiles(data, n=4)] (the default "exclusive" method), so a
   spread printed here is the same number an external script computes from
   the same values. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile p a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let s = sorted a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  s.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let quartiles a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples";
  let s = sorted a in
  if n = 1 then (s.(0), s.(0), s.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = Int.max 1 (Int.min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
  end

let median a =
  let _, m, _ = quartiles a in
  m

(* Interquartile range as a share of the median; 0 when the median is 0. *)
let spread a =
  let q1, q2, q3 = quartiles a in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2
