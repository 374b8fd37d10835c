module H = Mlpart_hypergraph.Hypergraph
module Rng = Mlpart_util.Rng

type config = { clip : bool; tolerance : float }

let default = { clip = false; tolerance = 0.1 }

(* The per-module move probability: 0.95, the original work's setting. *)
let p = 0.95

type result = { side : int array; cut : int }

(* Lazy binary max-heap of (key, version, module).  Entries are invalidated
   by bumping the module's version; stale entries are skipped on pop. *)
module Heap = struct
  type entry = { key : float; version : int; v : int }

  type t = { mutable data : entry array; mutable len : int }

  let create () = { data = Array.make 64 { key = 0.0; version = 0; v = 0 }; len = 0 }

  let clear t = t.len <- 0

  let swap t i j =
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(j);
    t.data.(j) <- tmp

  let push t entry =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) entry in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- entry;
    t.len <- t.len + 1;
    let i = ref (t.len - 1) in
    while !i > 0 && t.data.((!i - 1) / 2).key < t.data.(!i).key do
      swap t !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop t =
    if t.len = 0 then None
    else begin
      let top = t.data.(0) in
      t.len <- t.len - 1;
      if t.len > 0 then begin
        t.data.(0) <- t.data.(t.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let largest = ref !i in
          if l < t.len && t.data.(l).key > t.data.(!largest).key then largest := l;
          if r < t.len && t.data.(r).key > t.data.(!largest).key then largest := r;
          if !largest <> !i then begin
            swap t !i !largest;
            i := !largest
          end
          else continue := false
        done
      end;
      Some top
    end
end

type state = {
  cfg : config;
  h : H.t;
  bp : Bipartition.t;
  bounds : Bipartition.bounds;
  gain : float array;
  gain0 : float array; (* clip offsets *)
  version : int array;
  locked : bool array;
  free_on : int array;
  contrib : float array; (* per net-side pin slot *)
  heap : Heap.t;
  pow : float array; (* pow.(k) = p^k, up to max net size *)
}

let key_of st v = if st.cfg.clip then st.gain.(v) -. st.gain0.(v) else st.gain.(v)

let push st v =
  Heap.push st.heap { key = key_of st v; version = st.version.(v); v }

(* Contribution of net [e] to the gain of free pin [u]. *)
let contribution st e u =
  let a = Bipartition.side st.bp u in
  let b = 1 - a in
  let w = float_of_int (H.net_weight st.h e) in
  let free_a = st.free_on.((2 * e) + a) and free_b = st.free_on.((2 * e) + b) in
  let locked_a = Bipartition.pins_on st.bp e a - free_a
  and locked_b = Bipartition.pins_on st.bp e b - free_b in
  let qf = if locked_a > 0 then 0.0 else st.pow.(free_a - 1) in
  let qt = if locked_b > 0 then 0.0 else st.pow.(free_b) in
  w *. (qf -. qt)

let init_pass st =
  let n = H.num_modules st.h in
  let m = H.num_nets st.h in
  Array.fill st.locked 0 n false;
  Array.fill st.gain 0 n 0.0;
  for e = 0 to m - 1 do
    st.free_on.(2 * e) <- Bipartition.pins_on st.bp e 0;
    st.free_on.((2 * e) + 1) <- Bipartition.pins_on st.bp e 1
  done;
  for e = 0 to m - 1 do
    if H.net_size st.h e <= Refine_core.net_threshold then begin
      let base = H.net_offset st.h e in
      for i = 0 to H.net_size st.h e - 1 do
        let u = H.pin_at st.h (base + i) in
        let c = contribution st e u in
        st.contrib.(base + i) <- c;
        st.gain.(u) <- st.gain.(u) +. c
      done
    end
  done;
  if st.cfg.clip then Array.blit st.gain 0 st.gain0 0 n;
  Heap.clear st.heap;
  for v = 0 to n - 1 do
    st.version.(v) <- st.version.(v) + 1;
    push st v
  done

(* Move [v], lock it, refresh contributions of its nets. *)
let apply_move st v =
  let from = Bipartition.side st.bp v in
  st.locked.(v) <- true;
  H.iter_nets_of st.h v (fun e ->
      st.free_on.((2 * e) + from) <- st.free_on.((2 * e) + from) - 1);
  Bipartition.move st.bp v;
  H.iter_nets_of st.h v (fun e ->
      if H.net_size st.h e <= Refine_core.net_threshold then begin
        let base = H.net_offset st.h e in
        for i = 0 to H.net_size st.h e - 1 do
          let u = H.pin_at st.h (base + i) in
          if not st.locked.(u) then begin
            let c = contribution st e u in
            let delta = c -. st.contrib.(base + i) in
            if delta <> 0.0 then begin
              st.contrib.(base + i) <- c;
              st.gain.(u) <- st.gain.(u) +. delta;
              st.version.(u) <- st.version.(u) + 1;
              push st u
            end
          end
        done
      end)

let unmove st v =
  let from = Bipartition.side st.bp v in
  Bipartition.move st.bp v;
  H.iter_nets_of st.h v (fun e ->
      st.free_on.((2 * e) + from) <- st.free_on.((2 * e) + from) + 1)

(* Pop the best valid, feasible entry, or -1 when none remains; stale
   entries are dropped, infeasible-but-valid ones set aside and pushed
   back afterwards. *)
let select st =
  let stashed = ref [] in
  let rec go () =
    match Heap.pop st.heap with
    | None -> -1
    | Some { key; version; v } ->
        if st.locked.(v) || version <> st.version.(v) || key <> key_of st v then go ()
        else if Bipartition.move_is_feasible st.bp st.bounds v then v
        else begin
          stashed := v :: !stashed;
          go ()
        end
  in
  let v = go () in
  List.iter (fun v -> push st v) !stashed;
  v

let run ?(config = default) ?init rng h =
  let bounds = Bipartition.bounds ~tolerance:config.tolerance h in
  let bp =
    match init with
    | Some side -> Bipartition.create h side
    | None -> Bipartition.random rng h
  in
  if not (Bipartition.is_balanced bp bounds) then
    ignore (Bipartition.rebalance rng bp bounds);
  let n = H.num_modules h in
  let m = H.num_nets h in
  let max_size =
    let best = ref 0 in
    for e = 0 to m - 1 do
      if H.net_size h e > !best then best := H.net_size h e
    done;
    !best
  in
  let pow = Array.make (max_size + 2) 1.0 in
  for k = 1 to max_size + 1 do
    pow.(k) <- pow.(k - 1) *. p
  done;
  let st =
    {
      cfg = config;
      h;
      bp;
      bounds;
      gain = Array.make n 0.0;
      gain0 = Array.make n 0.0;
      version = Array.make n 0;
      locked = Array.make n false;
      free_on = Array.make (2 * m) 0;
      contrib = Array.make (Stdlib.max 1 (H.num_pins h)) 0.0;
      heap = Heap.create ();
      pow;
    }
  in
  (* Selection follows the probabilistic score, but the credited gain is
     the true cut change: the discrete FM gain. *)
  let order = Array.make n 0 in
  let ops =
    {
      Refine_core.select = (fun () -> select st);
      commit =
        (fun v ->
          let g = Bipartition.gain ~net_threshold:Refine_core.net_threshold st.bp v in
          apply_move st v;
          g);
      undo =
        (fun ~lo ~hi ->
          for i = hi - 1 downto lo do
            unmove st order.(i)
          done);
      rebuild = (fun ~first_bad:_ ~kept:_ -> ());
    }
  in
  ignore
    (Refine_core.drive ~max_passes:max_int (fun ~pass:_ ->
         init_pass st;
         Refine_core.run_pass ~order ops));
  { side = Bipartition.side_array st.bp; cut = Bipartition.cut st.bp }
