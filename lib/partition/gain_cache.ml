module H = Mlpart_hypergraph.Hypergraph

type graph = {
  areas : int array;
  net_pins : int array array;
  net_size : int array;
  net_weight : int array;
  mod_nets : int array array;
  mod_deg : int array;
}

let graph_of_hypergraph h =
  let n = H.num_modules h and m = H.num_nets h in
  let noff = H.net_offsets_store h in
  let pins = H.net_pins_store h in
  let moff = H.mod_offsets_store h in
  let mnets = H.mod_nets_store h in
  {
    areas = Array.copy (H.areas_store h);
    net_pins =
      Array.init m (fun e -> Array.sub pins noff.(e) (noff.(e + 1) - noff.(e)));
    net_size = Array.init m (fun e -> noff.(e + 1) - noff.(e));
    net_weight = Array.copy (H.net_weights_store h);
    mod_nets =
      Array.init n (fun v -> Array.sub mnets moff.(v) (moff.(v + 1) - moff.(v)));
    mod_deg = Array.init n (fun v -> moff.(v + 1) - moff.(v));
  }

let net_threshold = Refine_core.net_threshold

type t = {
  g : graph;
  k : int;
  side : int array;
  pins_on : int array; (* (k*e)+p: live pins of net e in part p *)
  spans : int array; (* parts with >= 1 pin, per net *)
  part_areas : int array;
  penalty : int array; (* per module *)
  benefit : int array; (* (k*v)+q *)
  mutable cut : int;
  net_stamp : int array; (* = stamp: net already retracted by this restore *)
  touched : int array; (* the nets this restore retracted, in order *)
  mutable stamp : int;
}

(* Add (sign = +1) or retract (sign = -1) net [e]'s gain contributions for
   all its live pins, against the current [pins_on] counts.  A pin [v] in
   part [p] takes a penalty term when the net lies entirely in [p]
   (pins_on = size) and benefit terms toward every part holding all other
   pins (own count 1, target count size-1).  Single-pin nets take both
   (gain 0 everywhere), which keeps the decomposition total. *)
let add_net_terms ?on_delta ?(silent = -1) t e sign =
  let s = t.g.net_size.(e) in
  if s <= net_threshold then begin
    let w = sign * t.g.net_weight.(e) in
    let base = t.k * e in
    let pins = t.g.net_pins.(e) in
    for i = 0 to s - 1 do
      let v = pins.(i) in
      let p = t.side.(v) in
      let own = t.pins_on.(base + p) in
      if own = s then begin
        t.penalty.(v) <- t.penalty.(v) + w;
        match on_delta with
        | Some f when v <> silent ->
            for q = 0 to t.k - 1 do
              if q <> p then f v q (-w)
            done
        | Some _ | None -> ()
      end;
      if own = 1 then
        for q = 0 to t.k - 1 do
          if q <> p && t.pins_on.(base + q) = s - 1 then begin
            t.benefit.((t.k * v) + q) <- t.benefit.((t.k * v) + q) + w;
            match on_delta with
            | Some f when v <> silent -> f v q w
            | Some _ | None -> ()
          end
        done
    done
  end

let retract_net ?on_delta ?silent t e =
  add_net_terms ?on_delta ?silent t e (-1);
  if t.spans.(e) >= 2 then t.cut <- t.cut - t.g.net_weight.(e)

(* Recount [e]'s per-part pins from its live pin list, then re-derive the
   span count, cut term and gain contributions. *)
let rederive_net ?on_delta ?silent t e =
  let base = t.k * e in
  for q = 0 to t.k - 1 do
    t.pins_on.(base + q) <- 0
  done;
  let pins = t.g.net_pins.(e) in
  for i = 0 to t.g.net_size.(e) - 1 do
    let slot = base + t.side.(pins.(i)) in
    t.pins_on.(slot) <- t.pins_on.(slot) + 1
  done;
  let spans = ref 0 in
  for q = 0 to t.k - 1 do
    if t.pins_on.(base + q) > 0 then incr spans
  done;
  t.spans.(e) <- !spans;
  if !spans >= 2 then t.cut <- t.cut + t.g.net_weight.(e);
  add_net_terms ?on_delta ?silent t e 1

let create g ~k ~members side =
  let n = Array.length g.mod_deg and m = Array.length g.net_size in
  let t =
    {
      g;
      k;
      side;
      pins_on = Array.make (k * m) 0;
      spans = Array.make m 0;
      part_areas = Array.make k 0;
      penalty = Array.make n 0;
      benefit = Array.make (k * n) 0;
      cut = 0;
      net_stamp = Array.make m 0;
      touched = Array.make m 0;
      stamp = 0;
    }
  in
  Array.iter
    (fun v -> t.part_areas.(side.(v)) <- t.part_areas.(side.(v)) + g.areas.(v))
    members;
  for e = 0 to m - 1 do
    rederive_net t e
  done;
  t

let k t = t.k
let side t v = t.side.(v)
let side_array t = t.side
let cut t = t.cut
let part_areas t = t.part_areas
let area t v = t.g.areas.(v)
let gain t v q = t.benefit.((t.k * v) + q) - t.penalty.(v)

(* Reassign [v] and its area; the caller retracts and re-derives its nets. *)
let relocate t v q =
  let p = t.side.(v) and a = t.g.areas.(v) in
  t.side.(v) <- q;
  t.part_areas.(p) <- t.part_areas.(p) - a;
  t.part_areas.(q) <- t.part_areas.(q) + a

let move ?on_delta t v q =
  if t.side.(v) <> q then begin
    let nets = t.g.mod_nets.(v) and deg = t.g.mod_deg.(v) in
    for i = 0 to deg - 1 do
      retract_net ?on_delta ~silent:v t nets.(i)
    done;
    relocate t v q;
    for i = 0 to deg - 1 do
      rederive_net ?on_delta ~silent:v t nets.(i)
    done
  end

(* Cached terms are a function of the assignment and the live structure
   alone, so one retraction before all the moves and one re-derivation
   after them leave every entry as the moves one by one would. *)
let restore t vs from len =
  t.stamp <- t.stamp + 1;
  let touched = ref 0 in
  for i = 0 to len - 1 do
    let v = vs.(i) in
    let nets = t.g.mod_nets.(v) in
    for j = 0 to t.g.mod_deg.(v) - 1 do
      let e = nets.(j) in
      if t.net_stamp.(e) <> t.stamp then begin
        t.net_stamp.(e) <- t.stamp;
        retract_net t e;
        t.touched.(!touched) <- e;
        incr touched
      end
    done
  done;
  for i = 0 to len - 1 do
    relocate t vs.(i) from.(vs.(i))
  done;
  for i = 0 to !touched - 1 do
    rederive_net t t.touched.(i)
  done

let activate t v ~part = t.side.(v) <- part

(* [u]'s pin in [e] becomes [v], which sits in [u]'s part: the pin counts,
   the span and the cut stay as they are, and [u]'s terms from [e] pass
   to [v]. *)
let rename_pin t e ~u ~v =
  let s = t.g.net_size.(e) in
  if s <= net_threshold then begin
    let w = t.g.net_weight.(e) and base = t.k * e and p = t.side.(u) in
    let own = t.pins_on.(base + p) in
    if own = s then begin
      t.penalty.(u) <- t.penalty.(u) - w;
      t.penalty.(v) <- t.penalty.(v) + w
    end;
    if own = 1 then
      for q = 0 to t.k - 1 do
        if q <> p && t.pins_on.(base + q) = s - 1 then begin
          t.benefit.((t.k * u) + q) <- t.benefit.((t.k * u) + q) - w;
          t.benefit.((t.k * v) + q) <- t.benefit.((t.k * v) + q) + w
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
   retracts all its terms. *)
let append_pin t e ~u ~v =
  let s = t.g.net_size.(e) in
  let base = t.k * e and p = t.side.(u) in
  if s = net_threshold then add_net_terms t e (-1)
  else if s < net_threshold then begin
    let w = t.g.net_weight.(e) in
    let own = t.pins_on.(base + p) in
    if own = s then t.penalty.(v) <- t.penalty.(v) + w;
    if own = 1 then
      for q = 0 to t.k - 1 do
        if q <> p && t.pins_on.(base + q) = s - 1 then
          t.benefit.((t.k * u) + q) <- t.benefit.((t.k * u) + q) - w
      done
  end;
  t.pins_on.(base + p) <- t.pins_on.(base + p) + 1

let recompute_gain t v q =
  let p = t.side.(v) in
  let total = ref 0 in
  for i = 0 to t.g.mod_deg.(v) - 1 do
    let e = t.g.mod_nets.(v).(i) in
    let s = t.g.net_size.(e) in
    if s <= net_threshold then begin
      let w = t.g.net_weight.(e) in
      let base = t.k * e in
      if t.pins_on.(base + p) = s then total := !total - w;
      if t.pins_on.(base + p) = 1 && t.pins_on.(base + q) = s - 1 then
        total := !total + w
    end
  done;
  !total

let recompute_cut t =
  let total = ref 0 in
  for e = 0 to Array.length t.g.net_size - 1 do
    let base = t.k * e in
    let spans = ref 0 in
    for q = 0 to t.k - 1 do
      if t.pins_on.(base + q) > 0 then incr spans
    done;
    if !spans >= 2 then total := !total + t.g.net_weight.(e)
  done;
  !total
