(* Per-domain ring buffers keep recording lock-free: each domain writes
   only its own ring (reached through domain-local storage), and the one
   mutex in the module guards the rare ring-registration and the
   export-side collection.  Collection happens after parallel work has
   joined, so the main domain reads fully published ring contents. *)

type arg = Int of int | Float of float | Str of string | Bool of bool

type event = {
  name : string;
  cat : string;
  ph : char;
  ts : int;
  dur : int;
  tid : int;
  args : (string * arg) list;
}

type ring = {
  tid : int;
  mutable buf : event array;
  mutable n : int; (* events ever written this session; slot = n mod cap *)
  mutable epoch : int; (* session the ring belongs to; -1 = unattached *)
}

let on = Atomic.make false
let capacity = ref 65536
let epoch = ref 0
let base = ref 0
let rings : ring list ref = ref []
let registry_mutex = Mutex.create ()

let dummy = { name = ""; cat = ""; ph = 'X'; ts = 0; dur = 0; tid = 0; args = [] }

let dls_key =
  Domain.DLS.new_key (fun () ->
      { tid = (Domain.self () :> int); buf = [||]; n = 0; epoch = -1 })

(* The recording domain's ring, (re)attached to the current session on
   first use after an enable/reset. *)
let ring () =
  let r = Domain.DLS.get dls_key in
  if r.epoch <> !epoch then begin
    r.buf <- Array.make !capacity dummy;
    r.n <- 0;
    r.epoch <- !epoch;
    Mutex.lock registry_mutex;
    rings := r :: !rings;
    Mutex.unlock registry_mutex
  end;
  r

let enabled () = Atomic.get on
let now_ns = Mlpart_util.Clock.now_ns
let start () = if Atomic.get on then now_ns () else 0

let record ev =
  let r = ring () in
  let cap = Array.length r.buf in
  r.buf.(r.n mod cap) <- ev;
  r.n <- r.n + 1

let complete ?(cat = "") ?(args = []) name t0 =
  if Atomic.get on then begin
    let t1 = now_ns () in
    let tid = (Domain.self () :> int) in
    record { name; cat; ph = 'X'; ts = t0 - !base; dur = t1 - t0; tid; args }
  end

let span ?cat ?args name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = now_ns () in
    let finish () =
      let args = match args with None -> [] | Some thunk -> thunk () in
      complete ?cat ~args name t0
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let instant ?(cat = "") ?(args = []) name =
  if Atomic.get on then begin
    let tid = (Domain.self () :> int) in
    record { name; cat; ph = 'i'; ts = now_ns () - !base; dur = 0; tid; args }
  end

let clear_session () =
  Mutex.lock registry_mutex;
  rings := [];
  incr epoch;
  Mutex.unlock registry_mutex;
  base := now_ns ()

let enable ?capacity:(cap = 65536) () =
  capacity := Stdlib.max 16 cap;
  clear_session ();
  Atomic.set on true

let disable () = Atomic.set on false
let reset () = clear_session ()

let collect () =
  Mutex.lock registry_mutex;
  let rs = !rings in
  Mutex.unlock registry_mutex;
  rs

let events () =
  let out = ref [] in
  List.iter
    (fun r ->
      let cap = Array.length r.buf in
      let kept = Stdlib.min r.n cap in
      for i = r.n - kept to r.n - 1 do
        out := r.buf.(i mod cap) :: !out
      done)
    (collect ());
  List.sort
    (fun a b ->
      let c = Int.compare a.ts b.ts in
      if c <> 0 then c
      else
        let c = Int.compare a.tid b.tid in
        if c <> 0 then c else String.compare a.name b.name)
    !out

let dropped () =
  List.fold_left
    (fun acc r -> acc + Stdlib.max 0 (r.n - Array.length r.buf))
    0 (collect ())

let json_of_arg = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let us_of_ns ns = float_of_int ns /. 1000.0

let json_of_event e =
  let base =
    [
      ("name", Json.Str e.name);
      ("cat", Json.Str (if e.cat = "" then "default" else e.cat));
      ("ph", Json.Str (String.make 1 e.ph));
      ("ts", Json.Float (us_of_ns e.ts));
      ("pid", Json.Int 1);
      ("tid", Json.Int e.tid);
    ]
  in
  let base =
    if e.ph = 'X' then base @ [ ("dur", Json.Float (us_of_ns e.dur)) ]
    else base
  in
  let base =
    match e.args with
    | [] -> base
    | args ->
        base
        @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)) ]
  in
  Json.Obj base

let to_json () =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map json_of_event (events ())));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj [ ("dropped", Json.Int (dropped ())) ]);
    ]

let export () = Json.to_string (to_json ())
let export_to_file path = Json.to_file path (to_json ())

(* Install the trace half of the util-layer probe seam: Pool records spans
   through these refs without depending on this library.  Module
   initialisation runs at program start whenever mlpart_obs is linked. *)
let () =
  Mlpart_util.Probe.trace_on := enabled;
  Mlpart_util.Probe.span_begin := start;
  Mlpart_util.Probe.span_end :=
    fun ~cat ~name ~t0 ~args ->
      if Atomic.get on then
        complete ~cat ~args:(List.map (fun (k, v) -> (k, Int v)) args) name t0
