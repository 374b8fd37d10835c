type t = {
  name : string;
  areas : int array;
  (* CSR net -> pins *)
  net_offsets : int array; (* length num_nets + 1 *)
  net_pins : int array;
  net_weights : int array;
  (* CSR module -> nets *)
  mod_offsets : int array; (* length num_modules + 1 *)
  mod_nets : int array;
  total_area : int;
  min_area : int;
  max_area : int;
}

let num_modules t = Array.length t.areas
let num_nets t = Array.length t.net_weights
let num_pins t = Array.length t.net_pins
let area t v = t.areas.(v)
let total_area t = t.total_area
let min_area t = t.min_area
let max_area t = t.max_area
let name t = t.name

let module_degree t v = t.mod_offsets.(v + 1) - t.mod_offsets.(v)

let iter_nets_of t v f =
  for i = t.mod_offsets.(v) to t.mod_offsets.(v + 1) - 1 do
    f t.mod_nets.(i)
  done

let nets_of t v =
  Array.sub t.mod_nets t.mod_offsets.(v) (module_degree t v)

let fold_nets_of t v ~init ~f =
  let acc = ref init in
  iter_nets_of t v (fun e -> acc := f !acc e);
  !acc

let net_size t e = t.net_offsets.(e + 1) - t.net_offsets.(e)
let net_weight t e = t.net_weights.(e)

let iter_pins_of t e f =
  for i = t.net_offsets.(e) to t.net_offsets.(e + 1) - 1 do
    f t.net_pins.(i)
  done

let pins_of t e = Array.sub t.net_pins t.net_offsets.(e) (net_size t e)

let net_offset t e = t.net_offsets.(e)
let pin_at t slot = t.net_pins.(slot)

(* Read-only views of the internal CSR arrays, for engine hot loops that
   cannot afford per-element function calls.  Callers must not write. *)
let net_offsets_store t = t.net_offsets
let net_pins_store t = t.net_pins
let net_weights_store t = t.net_weights
let mod_offsets_store t = t.mod_offsets
let mod_nets_store t = t.mod_nets
let areas_store t = t.areas

let fold_pins_of t e ~init ~f =
  let acc = ref init in
  iter_pins_of t e (fun v -> acc := f !acc v);
  !acc

let max_module_degree t =
  let best = ref 0 in
  for v = 0 to num_modules t - 1 do
    if module_degree t v > !best then best := module_degree t v
  done;
  !best

let max_weighted_degree t =
  let best = ref 0 in
  for v = 0 to num_modules t - 1 do
    let w = fold_nets_of t v ~init:0 ~f:(fun acc e -> acc + net_weight t e) in
    if w > !best then best := w
  done;
  !best

let total_net_weight t = Array.fold_left ( + ) 0 t.net_weights

let pp_summary ppf t =
  Format.fprintf ppf "%s: %d modules, %d nets, %d pins"
    (if t.name = "" then "<hypergraph>" else t.name)
    (num_modules t) (num_nets t) (num_pins t)

(* Monomorphic ascending sort of a.(lo .. lo+len-1): insertion sort for the
   short runs typical of coarse-net pin sets, quicksort above.  Avoids the
   callback through polymorphic [compare] that [Array.sort compare] pays on
   every comparison. *)
let rec sort_ints a lo len =
  if len <= 16 then
    for i = lo + 1 to lo + len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let hi = lo + len - 1 in
    let mid = lo + (len / 2) in
    let p =
      (* median of three *)
      let x = a.(lo) and y = a.(mid) and z = a.(hi) in
      if x < y then (if y < z then y else if x < z then z else x)
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < p do
        incr i
      done;
      while a.(!j) > p do
        decr j
      done;
      if !i <= !j then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    sort_ints a lo (!j - lo + 1);
    sort_ints a !i (hi - !i + 1)
  end

(* Shared construction tail: given valid net->pins CSR arrays, build the
   module->nets CSR by counting sort and finish the record.  This is the
   [make_csr] fast path: no validation, no (pins, weight) tuple array. *)
let make_csr ?(name = "") ~areas ~net_offsets ~net_pins ~net_weights () =
  let n = Array.length areas in
  let m = Array.length net_weights in
  let total_pins = Array.length net_pins in
  let degree = Array.make n 0 in
  Array.iter (fun v -> degree.(v) <- degree.(v) + 1) net_pins;
  let mod_offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    mod_offsets.(v + 1) <- mod_offsets.(v) + degree.(v)
  done;
  (* rewind [degree] into per-module write cursors *)
  Array.blit mod_offsets 0 degree 0 n;
  let cursor = degree in
  let mod_nets = Array.make total_pins 0 in
  for e = 0 to m - 1 do
    for i = net_offsets.(e) to net_offsets.(e + 1) - 1 do
      let v = net_pins.(i) in
      mod_nets.(cursor.(v)) <- e;
      cursor.(v) <- cursor.(v) + 1
    done
  done;
  let total_area = Array.fold_left ( + ) 0 areas in
  let min_area = ref (if n = 0 then 0 else max_int) in
  let max_area = ref 0 in
  Array.iter
    (fun a ->
      if a < !min_area then min_area := a;
      if a > !max_area then max_area := a)
    areas;
  {
    name;
    areas;
    net_offsets;
    net_pins;
    net_weights;
    mod_offsets;
    mod_nets;
    total_area;
    min_area = !min_area;
    max_area = !max_area;
  }

(* Construction.  [nets] is validated: each net needs >= 2 distinct in-range
   pins; then both CSR directions are materialised. *)
let make ?(name = "") ~areas ~nets () =
  let n = Array.length areas in
  Array.iteri
    (fun v a ->
      if a <= 0 then
        invalid_arg (Printf.sprintf "Hypergraph.make: area of module %d is %d" v a))
    areas;
  let seen = Array.make n (-1) in
  Array.iteri
    (fun e (pins, w) ->
      if w <= 0 then
        invalid_arg (Printf.sprintf "Hypergraph.make: net %d has weight %d" e w);
      if Array.length pins < 2 then
        invalid_arg (Printf.sprintf "Hypergraph.make: net %d has < 2 pins" e);
      Array.iter
        (fun v ->
          if v < 0 || v >= n then
            invalid_arg
              (Printf.sprintf "Hypergraph.make: net %d pin %d out of range" e v);
          if seen.(v) = e then
            invalid_arg
              (Printf.sprintf "Hypergraph.make: net %d repeats pin %d" e v);
          seen.(v) <- e)
        pins)
    nets;
  (* The sentinel array [seen] uses net ids as marks, so reset is implicit;
     but net id 0 collides with the initial -1? No: marks store e >= 0 and
     initial value is -1, and within net e we only compare against e. *)
  let m = Array.length nets in
  let net_offsets = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    let pins, _ = nets.(e) in
    net_offsets.(e + 1) <- net_offsets.(e) + Array.length pins
  done;
  let total_pins = net_offsets.(m) in
  let net_pins = Array.make total_pins 0 in
  let net_weights = Array.make m 0 in
  for e = 0 to m - 1 do
    let pins, w = nets.(e) in
    net_weights.(e) <- w;
    Array.blit pins 0 net_pins net_offsets.(e) (Array.length pins)
  done;
  make_csr ~name ~areas ~net_offsets ~net_pins ~net_weights ()

(* Unvalidated construction for ingestion and repair: the CSR is built
   as-is, so duplicate pins, sub-2-pin nets and non-positive areas/weights
   survive into the value.  Pins must still be in [0, n) — the counting
   sort indexes by pin id.  Anything built this way should flow through
   [validate]/[repair] before reaching an engine. *)
let make_unchecked ?(name = "") ~areas ~nets () =
  let n = Array.length areas in
  Array.iter
    (fun (pins, _) ->
      Array.iter
        (fun v ->
          if v < 0 || v >= n then
            invalid_arg
              (Printf.sprintf "Hypergraph.make_unchecked: pin %d out of range" v))
        pins)
    nets;
  let m = Array.length nets in
  let net_offsets = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    let pins, _ = nets.(e) in
    net_offsets.(e + 1) <- net_offsets.(e) + Array.length pins
  done;
  let net_pins = Array.make net_offsets.(m) 0 in
  let net_weights = Array.make m 0 in
  for e = 0 to m - 1 do
    let pins, w = nets.(e) in
    net_weights.(e) <- w;
    Array.blit pins 0 net_pins net_offsets.(e) (Array.length pins)
  done;
  make_csr ~name ~areas ~net_offsets ~net_pins ~net_weights ()

(* ---- Validation and repair ---- *)

module Diag = Mlpart_util.Diag

let validate t =
  let source = if t.name = "" then "<hypergraph>" else t.name in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n = num_modules t in
  Array.iteri
    (fun v a ->
      if a <= 0 then
        add (Diag.error ~source Diag.Bad_area "module %d has area %d" v a))
    t.areas;
  let seen = Array.make n (-1) in
  for e = 0 to num_nets t - 1 do
    if t.net_weights.(e) <= 0 then
      add (Diag.error ~source Diag.Bad_weight "net %d has weight %d" e
             t.net_weights.(e));
    let distinct = ref 0 in
    iter_pins_of t e (fun v ->
        if seen.(v) = e then
          add (Diag.error ~source Diag.Duplicate_pin "net %d repeats pin %d" e v)
        else begin
          seen.(v) <- e;
          incr distinct
        end);
    if !distinct = 0 then add (Diag.error ~source Diag.Empty_net "net %d is empty" e)
    else if !distinct < 2 then
      add (Diag.error ~source Diag.Singleton_net
             "net %d has a single distinct pin" e)
  done;
  match List.rev !diags with [] -> Ok () | ds -> Error ds

type repair_report = {
  dropped_nets : int;
  deduped_pins : int;
  clamped_areas : int;
  clamped_weights : int;
  repair_diags : Diag.t list;
}

let repair t =
  let source = if t.name = "" then "<hypergraph>" else t.name in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let dropped = ref 0 and deduped = ref 0 and areas_c = ref 0 and weights_c = ref 0 in
  let areas =
    Array.mapi
      (fun v a ->
        if a <= 0 then begin
          incr areas_c;
          add (Diag.warning ~source Diag.Bad_area
                 "clamped area of module %d from %d to 1" v a);
          1
        end
        else a)
      t.areas
  in
  let nets = ref [] in
  for e = 0 to num_nets t - 1 do
    let pins = pins_of t e in
    let distinct = List.sort_uniq Int.compare (Array.to_list pins) in
    let d = List.length distinct in
    if d < Array.length pins then begin
      deduped := !deduped + (Array.length pins - d);
      add (Diag.warning ~source Diag.Duplicate_pin
             "net %d: collapsed %d duplicate pin(s)" e (Array.length pins - d))
    end;
    if d < 2 then begin
      incr dropped;
      add (Diag.warning ~source
             (if d = 0 then Diag.Empty_net else Diag.Singleton_net)
             "dropped net %d (%d distinct pin(s))" e d)
    end
    else begin
      let w = t.net_weights.(e) in
      let w =
        if w <= 0 then begin
          incr weights_c;
          add (Diag.warning ~source Diag.Bad_weight
                 "clamped weight of net %d from %d to 1" e w);
          1
        end
        else w
      in
      nets := (Array.of_list distinct, w) :: !nets
    end
  done;
  let repaired =
    make ~name:t.name ~areas ~nets:(Array.of_list (List.rev !nets)) ()
  in
  ( repaired,
    {
      dropped_nets = !dropped;
      deduped_pins = !deduped;
      clamped_areas = !areas_c;
      clamped_weights = !weights_c;
      repair_diags = List.rev !diags;
    } )

(* ---- Induced coarse hypergraphs (Definition 1) ---- *)

(* Reusable scratch for [induce]: the coarsening loop calls it once per
   level, and without the arena each call would allocate mark/scratch/dedup
   arrays proportional to the cluster count.  Stamps are generational:
   [stamp] only grows, so [mark] never needs clearing between nets, levels
   or even hypergraphs. *)
type arena = {
  mutable mark : int array; (* per-cluster stamp *)
  mutable stamp : int;
  mutable scratch : int array; (* distinct clusters of the current net *)
  mutable table : int array; (* open-addressing dedup slots: kept index + 1 *)
  mutable hashes : int array; (* pin-set hash per kept coarse net *)
}

let create_arena () =
  { mark = [||]; stamp = 0; scratch = [||]; table = [||]; hashes = [||] }

let ensure_ints a len = if Array.length a >= len then a else Array.make len 0

let validate_clustering fname t cluster_of =
  let n = num_modules t in
  if Array.length cluster_of <> n then
    invalid_arg (fname ^ ": clustering length mismatch");
  let max_c = ref (-1) in
  Array.iter (fun c -> if c > !max_c then max_c := c) cluster_of;
  let k = !max_c + 1 in
  if k <= 0 then invalid_arg (fname ^ ": empty clustering");
  Array.iteri
    (fun v c ->
      if c < 0 then
        invalid_arg (Printf.sprintf "%s: module %d cluster %d" fname v c))
    cluster_of;
  let coarse_areas = Array.make k 0 in
  for v = 0 to n - 1 do
    let c = cluster_of.(v) in
    coarse_areas.(c) <- coarse_areas.(c) + t.areas.(v)
  done;
  Array.iteri
    (fun c a ->
      if a = 0 then
        invalid_arg (Printf.sprintf "%s: cluster %d is empty" fname c))
    coarse_areas;
  (k, coarse_areas)

(* Induce the coarse hypergraph of a clustering.  Cluster ids must be
   contiguous 0..k-1.  Two passes over the fine pins: the first counts
   surviving nets and their pins (so the coarse CSR arrays are allocated at
   exact size), the second writes sorted pin runs directly into them.
   Duplicate merging dedups by hash of the sorted run in first-occurrence
   order.  No per-net allocation, no intermediate (pins, weight) tuples,
   no re-validation. *)
(* Parallel variant of the two-pass CSR induce: per-range counting with
   per-slot mark arrays, prefix-sum placement, parallel fill.  Coarse nets
   land at positions computed from the scans — a pure function of the fine
   net order — so the output arrays are byte-identical to the sequential
   path for any pool size.  Duplicate merging is inherently first-occurrence
   sequential, so only the non-merging path parallelizes. *)
let induce_parallel ~name pool t cluster_of ~k ~coarse_areas =
  let module Pool = Mlpart_util.Pool in
  let fine_offsets = t.net_offsets in
  let fine_pins = t.net_pins in
  let m = num_nets t in
  let slots = Pool.size pool in
  let marks = Array.init slots (fun _ -> Array.make k 0) in
  let stamps = Array.make slots 0 in
  let scratches = Array.init slots (fun _ -> Array.make k 0) in
  (* pass 1: distinct-cluster count per net (0 marks a dropped net) *)
  let cnt = Array.make m 0 in
  let keep = Array.make m 0 in
  Pool.parallel_chunks pool ~n:m ~body:(fun ~slot ~lo ~hi ->
      let mark = marks.(slot) in
      for e = lo to hi - 1 do
        stamps.(slot) <- stamps.(slot) + 1;
        let s = stamps.(slot) in
        let c = ref 0 in
        for i = fine_offsets.(e) to fine_offsets.(e + 1) - 1 do
          let cl = cluster_of.(fine_pins.(i)) in
          if mark.(cl) <> s then begin
            mark.(cl) <- s;
            incr c
          end
        done;
        if !c >= 2 then begin
          cnt.(e) <- !c;
          keep.(e) <- 1
        end
      done);
  (* prefix sums place every surviving net and its pin run *)
  let kept_at = Array.make (m + 1) 0 in
  let pin_at = Array.make (m + 1) 0 in
  let kept = Pool.parallel_scan pool ~n:m ~src:keep ~dst:kept_at in
  let total = Pool.parallel_scan pool ~n:m ~src:cnt ~dst:pin_at in
  let coarse_offsets = Array.make (kept + 1) 0 in
  let coarse_pins = Array.make total 0 in
  let coarse_weights = Array.make kept 0 in
  (* pass 2: re-derive each surviving net's sorted cluster run into its
     scanned slot *)
  Pool.parallel_chunks pool ~n:m ~body:(fun ~slot ~lo ~hi ->
      let mark = marks.(slot) in
      let scratch = scratches.(slot) in
      for e = lo to hi - 1 do
        if keep.(e) = 1 then begin
          stamps.(slot) <- stamps.(slot) + 1;
          let s = stamps.(slot) in
          let c = ref 0 in
          for i = fine_offsets.(e) to fine_offsets.(e + 1) - 1 do
            let cl = cluster_of.(fine_pins.(i)) in
            if mark.(cl) <> s then begin
              mark.(cl) <- s;
              scratch.(!c) <- cl;
              incr c
            end
          done;
          let c = !c in
          sort_ints scratch 0 c;
          let j = kept_at.(e) in
          let off = pin_at.(e) in
          Array.blit scratch 0 coarse_pins off c;
          coarse_weights.(j) <- t.net_weights.(e);
          coarse_offsets.(j + 1) <- off + c
        end
      done);
  ( make_csr ~name ~areas:coarse_areas ~net_offsets:coarse_offsets
      ~net_pins:coarse_pins ~net_weights:coarse_weights (),
    k )

let rec induce ?(name = "") ?(merge_duplicates = false) ?arena ?pool t
    cluster_of =
  let k, coarse_areas = validate_clustering "Hypergraph.induce" t cluster_of in
  match pool with
  | Some p
    when Mlpart_util.Pool.size p > 1 && not merge_duplicates && num_nets t > 0
    ->
      induce_parallel ~name p t cluster_of ~k ~coarse_areas
  | _ -> induce_sequential ~name ~merge_duplicates ?arena t cluster_of ~k
           ~coarse_areas

and induce_sequential ~name ~merge_duplicates ?arena t cluster_of ~k
    ~coarse_areas =
  let ar = match arena with Some a -> a | None -> create_arena () in
  ar.mark <- ensure_ints ar.mark k;
  ar.scratch <- ensure_ints ar.scratch k;
  let mark = ar.mark in
  let scratch = ar.scratch in
  let fine_offsets = t.net_offsets in
  let fine_pins = t.net_pins in
  let m = num_nets t in
  (* pass 1: how many coarse nets survive, with how many pins in total *)
  let kept = ref 0 in
  let total = ref 0 in
  for e = 0 to m - 1 do
    ar.stamp <- ar.stamp + 1;
    let s = ar.stamp in
    let cnt = ref 0 in
    for i = fine_offsets.(e) to fine_offsets.(e + 1) - 1 do
      let c = cluster_of.(fine_pins.(i)) in
      if mark.(c) <> s then begin
        mark.(c) <- s;
        incr cnt
      end
    done;
    if !cnt >= 2 then begin
      incr kept;
      total := !total + !cnt
    end
  done;
  let kept = !kept in
  let coarse_offsets = Array.make (kept + 1) 0 in
  let coarse_pins = Array.make !total 0 in
  let coarse_weights = Array.make kept 0 in
  let mask =
    if not merge_duplicates then 0
    else begin
      let cap = ref 16 in
      while !cap < 2 * kept do
        cap := !cap * 2
      done;
      let cap = if Array.length ar.table > !cap then Array.length ar.table else !cap in
      ar.table <- ensure_ints ar.table cap;
      Array.fill ar.table 0 cap 0;
      ar.hashes <- ensure_ints ar.hashes kept;
      cap - 1
    end
  in
  let table = ar.table in
  let hashes = ar.hashes in
  (* pass 2: fill the coarse CSR in net order *)
  let j = ref 0 in
  let cursor = ref 0 in
  for e = 0 to m - 1 do
    ar.stamp <- ar.stamp + 1;
    let s = ar.stamp in
    let cnt = ref 0 in
    for i = fine_offsets.(e) to fine_offsets.(e + 1) - 1 do
      let c = cluster_of.(fine_pins.(i)) in
      if mark.(c) <> s then begin
        mark.(c) <- s;
        scratch.(!cnt) <- c;
        incr cnt
      end
    done;
    let cnt = !cnt in
    if cnt >= 2 then begin
      sort_ints scratch 0 cnt;
      let w = t.net_weights.(e) in
      let dup =
        if not merge_duplicates then -1
        else begin
          let h = ref cnt in
          for i = 0 to cnt - 1 do
            h := ((!h * 0x9E3779B1) + scratch.(i)) land max_int
          done;
          let h = !h in
          let idx = ref (h land mask) in
          let found = ref (-1) in
          let continue = ref true in
          while !continue do
            let entry = table.(!idx) in
            if entry = 0 then begin
              (* claim the empty slot for this net if it ends up kept *)
              table.(!idx) <- !j + 1;
              hashes.(!j) <- h;
              continue := false
            end
            else begin
              let cand = entry - 1 in
              let off = coarse_offsets.(cand) in
              if
                hashes.(cand) = h
                && coarse_offsets.(cand + 1) - off = cnt
                && begin
                     let equal = ref true in
                     let i = ref 0 in
                     while !equal && !i < cnt do
                       if coarse_pins.(off + !i) <> scratch.(!i) then
                         equal := false
                       else incr i
                     done;
                     !equal
                   end
              then begin
                found := cand;
                continue := false
              end
              else idx := (!idx + 1) land mask
            end
          done;
          !found
        end
      in
      if dup >= 0 then coarse_weights.(dup) <- coarse_weights.(dup) + w
      else begin
        Array.blit scratch 0 coarse_pins !cursor cnt;
        coarse_weights.(!j) <- w;
        incr j;
        cursor := !cursor + cnt;
        coarse_offsets.(!j) <- !cursor
      end
    end
  done;
  let net_offsets, net_pins, net_weights =
    if !j = kept then (coarse_offsets, coarse_pins, coarse_weights)
    else
      ( Array.sub coarse_offsets 0 (!j + 1),
        Array.sub coarse_pins 0 !cursor,
        Array.sub coarse_weights 0 !j )
  in
  (make_csr ~name ~areas:coarse_areas ~net_offsets ~net_pins ~net_weights (), k)

(* Straightforward list-based induce, retained as the oracle for property
   tests of the CSR fast path above.  Semantics are identical: coarse nets
   in fine-net order with sorted pins; duplicate merging keeps the first
   occurrence and sums weights into it. *)
let induce_reference ?(name = "") ?(merge_duplicates = false) t cluster_of =
  let k, coarse_areas =
    validate_clustering "Hypergraph.induce_reference" t cluster_of
  in
  let mark = Array.make k (-1) in
  let scratch = Array.make k 0 in
  let rev_nets = ref [] in
  for e = 0 to num_nets t - 1 do
    let count = ref 0 in
    iter_pins_of t e (fun v ->
        let c = cluster_of.(v) in
        if mark.(c) <> e then begin
          mark.(c) <- e;
          scratch.(!count) <- c;
          incr count
        end);
    if !count >= 2 then begin
      let pins = Array.sub scratch 0 !count in
      Array.sort Stdlib.compare pins;
      rev_nets := (pins, net_weight t e) :: !rev_nets
    end
  done;
  let nets = List.rev !rev_nets in
  let nets =
    if not merge_duplicates then Array.of_list nets
    else begin
      let table : (int array, int ref) Hashtbl.t = Hashtbl.create 64 in
      let rev_merged = ref [] in
      List.iter
        (fun (pins, w) ->
          match Hashtbl.find_opt table pins with
          | Some wr -> wr := !wr + w
          | None ->
              let wr = ref w in
              Hashtbl.add table pins wr;
              rev_merged := (pins, wr) :: !rev_merged)
        nets;
      Array.of_list (List.rev_map (fun (pins, wr) -> (pins, !wr)) !rev_merged)
    end
  in
  (make ~name ~areas:coarse_areas ~nets (), k)
