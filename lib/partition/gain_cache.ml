module Kp = Kpartition

let net_threshold = Refine_core.net_threshold

type t = {
  kp : Kp.t;
  penalty : int array; (* per module *)
  benefit : int array; (* (k*v)+q *)
  net_stamp : int array; (* = stamp: net already retracted by this restore *)
  touched : int array; (* the nets this restore retracted, in order *)
  mutable stamp : int;
}

(* Add (sign = +1) or retract (sign = -1) net [e]'s gain contributions for
   all its live pins, against the partition's current pin counts.  A pin
   [v] in part [p] takes a penalty term when the net lies entirely in [p]
   (pins_on = size) and benefit terms toward every part holding all other
   pins (own count 1, target count size-1).  Single-pin nets take both
   (gain 0 everywhere), which keeps the decomposition total. *)
let add_net_terms ?on_delta ?(silent = -1) t e sign =
  let g = Kp.graph t.kp in
  let s = g.net_size.(e) in
  if s <= net_threshold then begin
    let k = Kp.k t.kp and side = Kp.side_store t.kp in
    let pins_on = Kp.pins_on_store t.kp in
    let w = sign * g.net_weight.(e) in
    let base = k * e in
    let pins = g.net_pins.(e) in
    for i = 0 to s - 1 do
      let v = pins.(i) in
      let p = side.(v) in
      let own = pins_on.(base + p) in
      if own = s then begin
        t.penalty.(v) <- t.penalty.(v) + w;
        match on_delta with
        | Some f when v <> silent ->
            for q = 0 to k - 1 do
              if q <> p then f v q (-w)
            done
        | Some _ | None -> ()
      end;
      if own = 1 then
        for q = 0 to k - 1 do
          if q <> p && pins_on.(base + q) = s - 1 then begin
            t.benefit.((k * v) + q) <- t.benefit.((k * v) + q) + w;
            match on_delta with
            | Some f when v <> silent -> f v q w
            | Some _ | None -> ()
          end
        done
    done
  end

let create kp =
  let g = Kp.graph kp in
  let n = Array.length g.mod_deg and m = Array.length g.net_size in
  let t =
    {
      kp;
      penalty = Array.make n 0;
      benefit = Array.make (Kp.k kp * n) 0;
      net_stamp = Array.make m 0;
      touched = Array.make m 0;
      stamp = 0;
    }
  in
  for e = 0 to m - 1 do
    add_net_terms t e 1
  done;
  t

let partition t = t.kp
let gain t v q = t.benefit.((Kp.k t.kp * v) + q) - t.penalty.(v)

let move ?on_delta t v q =
  if Kp.side t.kp v <> q then begin
    let g = Kp.graph t.kp in
    let nets = g.mod_nets.(v) and deg = g.mod_deg.(v) in
    for i = 0 to deg - 1 do
      add_net_terms ?on_delta ~silent:v t nets.(i) (-1)
    done;
    Kp.move t.kp v q;
    for i = 0 to deg - 1 do
      add_net_terms ?on_delta ~silent:v t nets.(i) 1
    done
  end

(* Cached terms are a function of the assignment and the live structure
   alone, so one retraction before all the moves and one addition after
   them leave every entry as the moves one by one would. *)
let restore t vs from len =
  let g = Kp.graph t.kp in
  t.stamp <- t.stamp + 1;
  let touched = ref 0 in
  for i = 0 to len - 1 do
    let v = vs.(i) in
    let nets = g.mod_nets.(v) in
    for j = 0 to g.mod_deg.(v) - 1 do
      let e = nets.(j) in
      if t.net_stamp.(e) <> t.stamp then begin
        t.net_stamp.(e) <- t.stamp;
        add_net_terms t e (-1);
        t.touched.(!touched) <- e;
        incr touched
      end
    done
  done;
  for i = 0 to len - 1 do
    Kp.move t.kp vs.(i) from.(vs.(i))
  done;
  for i = 0 to !touched - 1 do
    add_net_terms t t.touched.(i) 1
  done

(* [u]'s pin in [e] becomes [v], which sits in [u]'s part: the pin counts,
   the span and the cut stay as they are, and [u]'s terms from [e] pass
   to [v]. *)
let rename_pin t e ~u ~v =
  let g = Kp.graph t.kp in
  let s = g.net_size.(e) in
  if s <= net_threshold then begin
    let k = Kp.k t.kp and pins_on = Kp.pins_on_store t.kp in
    let w = g.net_weight.(e) and base = k * e and p = Kp.side t.kp u in
    let own = pins_on.(base + p) in
    if own = s then begin
      t.penalty.(u) <- t.penalty.(u) - w;
      t.penalty.(v) <- t.penalty.(v) + w
    end;
    if own = 1 then
      for q = 0 to k - 1 do
        if q <> p && pins_on.(base + q) = s - 1 then begin
          t.benefit.((k * u) + q) <- t.benefit.((k * u) + q) - w;
          t.benefit.((k * v) + q) <- t.benefit.((k * v) + q) + w
        end
      done
  end

(* [v] joins [e] beside [u], in [u]'s part [p]: [p] gains a pin; the span
   and the cut stay.  A pin of another part can hold a term only toward
   [p], and keeps it: [p] still holds every pin but that one.  A pin
   already in [p] keeps its penalty: the net lies wholly in [p] after the
   append exactly when it did before.  So three things change: [v] takes
   the penalty if the net lay wholly in [p], [u]'s benefit terms lapse if
   it was [p]'s only pin, and a net that outgrows the gain threshold
   retracts all its terms.  The partition then counts the new pin. *)
let append_pin t e ~u ~v =
  let g = Kp.graph t.kp in
  let s = g.net_size.(e) in
  if s = net_threshold then add_net_terms t e (-1)
  else if s < net_threshold then begin
    let k = Kp.k t.kp and pins_on = Kp.pins_on_store t.kp in
    let w = g.net_weight.(e) and base = k * e and p = Kp.side t.kp u in
    let own = pins_on.(base + p) in
    if own = s then t.penalty.(v) <- t.penalty.(v) + w;
    if own = 1 then
      for q = 0 to k - 1 do
        if q <> p && pins_on.(base + q) = s - 1 then
          t.benefit.((k * u) + q) <- t.benefit.((k * u) + q) - w
      done
  end;
  Kp.add_pin t.kp e v

let recompute_gain t v q =
  let g = Kp.graph t.kp in
  let p = Kp.side t.kp v in
  let total = ref 0 in
  for i = 0 to g.mod_deg.(v) - 1 do
    let e = g.mod_nets.(v).(i) in
    let s = g.net_size.(e) in
    if s <= net_threshold then begin
      let w = g.net_weight.(e) in
      let own = Kp.pins_on t.kp e p in
      if own = s then total := !total - w;
      if own = 1 && Kp.pins_on t.kp e q = s - 1 then total := !total + w
    end
  done;
  !total
