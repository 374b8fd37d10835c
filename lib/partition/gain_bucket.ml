module Rng = Mlpart_util.Rng

type policy = Lifo | Fifo | Random

let policy_to_string = function Lifo -> "lifo" | Fifo -> "fifo" | Random -> "random"

(* Intrusive doubly-linked lists over a module-id-indexed arena, with
   epoch-stamped lazy clearing: a bucket's [head]/[tail]/[len] and a
   module's [key] are valid only when the matching stamp equals the current
   [epoch], so [clear] is a single increment instead of O(capacity +
   gain-range) array fills — every pass of an FM run resets the structure,
   which made the eager fills the dominant cost on small gain ranges.
   [len] is maintained per bucket so [Random] selection draws its target
   index without first walking the list to count it. *)
type t = {
  mutable policy : policy;
  mutable rng : Rng.t;
  mutable min_gain : int;
  mutable max_gain : int;
  mutable head : int array; (* bucket index - min_gain -> first module or -1 *)
  mutable tail : int array;
  mutable len : int array; (* modules stored in the bucket *)
  mutable bstamp : int array; (* bucket epoch stamp *)
  mutable next : int array;
  mutable prev : int array;
  mutable key : int array; (* gain of stored module *)
  mutable vstamp : int array; (* module epoch stamp; 0 is always stale *)
  mutable epoch : int; (* current generation, >= 1 *)
  mutable max_bucket : int; (* upper bound on highest non-empty bucket gain *)
  mutable size : int;
}

let create ?rng ~policy ~min_gain ~max_gain ~capacity () =
  if max_gain < min_gain then invalid_arg "Gain_bucket.create: empty gain range";
  let nbuckets = max_gain - min_gain + 1 in
  let rng = match rng with Some r -> r | None -> Rng.create 0x6a11 in
  {
    policy;
    rng;
    min_gain;
    max_gain;
    head = Array.make nbuckets (-1);
    tail = Array.make nbuckets (-1);
    len = Array.make nbuckets 0;
    bstamp = Array.make nbuckets 0;
    next = Array.make capacity (-1);
    prev = Array.make capacity (-1);
    key = Array.make capacity 0;
    vstamp = Array.make capacity 0;
    epoch = 1;
    max_bucket = min_gain - 1;
    size = 0;
  }

let reinit ?rng ~policy ~min_gain ~max_gain ~capacity t =
  if max_gain < min_gain then invalid_arg "Gain_bucket.reinit: empty gain range";
  let nbuckets = max_gain - min_gain + 1 in
  if Array.length t.head < nbuckets then begin
    (* fresh zero-filled arrays are stale for any epoch >= 1 *)
    t.head <- Array.make nbuckets (-1);
    t.tail <- Array.make nbuckets (-1);
    t.len <- Array.make nbuckets 0;
    t.bstamp <- Array.make nbuckets 0
  end;
  if Array.length t.next < capacity then begin
    t.next <- Array.make capacity (-1);
    t.prev <- Array.make capacity (-1);
    t.key <- Array.make capacity 0;
    t.vstamp <- Array.make capacity 0
  end;
  t.policy <- policy;
  (match rng with Some r -> t.rng <- r | None -> ());
  t.min_gain <- min_gain;
  t.max_gain <- max_gain;
  t.epoch <- t.epoch + 1;
  t.max_bucket <- min_gain - 1;
  t.size <- 0

let clear t =
  t.epoch <- t.epoch + 1;
  t.max_bucket <- t.min_gain - 1;
  t.size <- 0

let size t = t.size
let is_empty t = t.size = 0
let contains t v = t.vstamp.(v) = t.epoch

let gain_of t v = t.key.(v)

let slot t g = g - t.min_gain

(* Effective head of bucket [i]: empty unless written this epoch. *)
let bucket_head t i = if t.bstamp.(i) = t.epoch then t.head.(i) else -1

(* Bring bucket [i] into the current epoch before writing to it. *)
let touch_bucket t i =
  if t.bstamp.(i) <> t.epoch then begin
    t.bstamp.(i) <- t.epoch;
    t.head.(i) <- -1;
    t.tail.(i) <- -1;
    t.len.(i) <- 0
  end

let insert t v g =
  if g < t.min_gain || g > t.max_gain then
    invalid_arg
      (Printf.sprintf "Gain_bucket.insert: gain %d outside [%d, %d]" g t.min_gain
         t.max_gain);
  if contains t v then invalid_arg "Gain_bucket.insert: module already present";
  let i = slot t g in
  touch_bucket t i;
  (match t.policy with
  | Lifo | Random ->
      (* push front *)
      let old = t.head.(i) in
      t.next.(v) <- old;
      t.prev.(v) <- -1;
      if old >= 0 then t.prev.(old) <- v else t.tail.(i) <- v;
      t.head.(i) <- v
  | Fifo ->
      (* push back *)
      let old = t.tail.(i) in
      t.prev.(v) <- old;
      t.next.(v) <- -1;
      if old >= 0 then t.next.(old) <- v else t.head.(i) <- v;
      t.tail.(i) <- v);
  t.key.(v) <- g;
  t.vstamp.(v) <- t.epoch;
  t.len.(i) <- t.len.(i) + 1;
  if g > t.max_bucket then t.max_bucket <- g;
  t.size <- t.size + 1

let remove t v =
  if contains t v then begin
    let i = slot t t.key.(v) in
    let p = t.prev.(v) and n = t.next.(v) in
    if p >= 0 then t.next.(p) <- n else t.head.(i) <- n;
    if n >= 0 then t.prev.(n) <- p else t.tail.(i) <- p;
    t.vstamp.(v) <- 0;
    t.len.(i) <- t.len.(i) - 1;
    t.size <- t.size - 1
  end

(* [remove] + [insert] fused into direct link surgery: the module stays
   stamped present throughout, so the checks, stamp churn and [size]
   round-trip of the two-call sequence disappear from the FM gain-update
   hot path.  The resulting list shapes are exactly those of the two-call
   sequence (unlink, then policy-order push into the target bucket). *)
let adjust t v delta =
  if not (contains t v) then invalid_arg "Gain_bucket.adjust: module absent";
  let g = t.key.(v) + delta in
  if g < t.min_gain || g > t.max_gain then
    invalid_arg
      (Printf.sprintf "Gain_bucket.adjust: gain %d outside [%d, %d]" g t.min_gain
         t.max_gain);
  let i = slot t t.key.(v) in
  let p = t.prev.(v) and n = t.next.(v) in
  if p >= 0 then t.next.(p) <- n else t.head.(i) <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail.(i) <- p;
  t.len.(i) <- t.len.(i) - 1;
  let j = slot t g in
  touch_bucket t j;
  (match t.policy with
  | Lifo | Random ->
      let old = t.head.(j) in
      t.next.(v) <- old;
      t.prev.(v) <- -1;
      if old >= 0 then t.prev.(old) <- v else t.tail.(j) <- v;
      t.head.(j) <- v
  | Fifo ->
      let old = t.tail.(j) in
      t.prev.(v) <- old;
      t.next.(v) <- -1;
      if old >= 0 then t.next.(old) <- v else t.head.(j) <- v;
      t.tail.(j) <- v);
  t.key.(v) <- g;
  t.len.(j) <- t.len.(j) + 1;
  if g > t.max_bucket then t.max_bucket <- g

(* Lower [max_bucket] past empty buckets. *)
let settle t =
  while t.max_bucket >= t.min_gain && bucket_head t (slot t t.max_bucket) < 0 do
    t.max_bucket <- t.max_bucket - 1
  done

(* Uniform pick from a non-empty current-epoch bucket: one RNG draw against
   the maintained length, one partial walk to the drawn index. *)
let random_of_bucket t i =
  let target = Rng.int t.rng t.len.(i) in
  let v = ref t.head.(i) in
  for _ = 1 to target do
    v := t.next.(!v)
  done;
  !v

let select_max t =
  if t.size = 0 then None
  else begin
    settle t;
    let i = slot t t.max_bucket in
    let v =
      match t.policy with Lifo | Fifo -> t.head.(i) | Random -> random_of_bucket t i
    in
    Some (v, t.max_bucket)
  end

exception Found of int

(* Scan buckets downward; within a bucket, front first.  For Random, the
   policy's uniform pick is tried first, then a linear fallback from the
   head (bias acceptable for rejected candidates) — one generator draw per
   non-empty bucket visited, exactly as selection without a predicate.
   Iterative so the per-call cost is the rejected candidates alone, with no
   closure or result allocation; the winner's key is its stored gain. *)
let select_satisfying t pred =
  if t.size = 0 then -1
  else begin
    settle t;
    try
      let g = ref t.max_bucket in
      while !g >= t.min_gain do
        let i = slot t !g in
        let h = bucket_head t i in
        if h >= 0 then begin
          (match t.policy with
          | Lifo | Fifo -> ()
          | Random ->
              let start = random_of_bucket t i in
              if pred start then raise_notrace (Found start));
          let v = ref h in
          while !v >= 0 do
            if pred !v then raise_notrace (Found !v);
            v := t.next.(!v)
          done
        end;
        decr g
      done;
      -1
    with Found v -> v
  end

let draws_on_select t =
  match t.policy with Random -> true | Lifo | Fifo -> false

let pop_max t =
  match select_max t with
  | None -> None
  | Some (v, g) ->
      remove t v;
      Some (v, g)

let max_key t =
  if t.size = 0 then None
  else begin
    settle t;
    Some t.max_bucket
  end

let iter_key t g f =
  if g >= t.min_gain && g <= t.max_gain then begin
    let v = ref (bucket_head t (slot t g)) in
    while !v >= 0 do
      let cur = !v in
      v := t.next.(cur);
      f cur
    done
  end
