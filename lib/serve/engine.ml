module Hgr_io = Mlpart_hypergraph.Hgr_io
module Netd_io = Mlpart_hypergraph.Netd_io
module Suite = Mlpart_gen.Suite
module Fm = Mlpart_partition.Fm
module Ml = Mlpart_multilevel.Ml
module Diag = Mlpart_util.Diag
module Rng = Mlpart_util.Rng
module Pool = Mlpart_util.Pool
module Deadline = Mlpart_util.Deadline
module Multistart = Mlpart_util.Multistart
module Json = Mlpart_obs.Json
module Metrics = Mlpart_obs.Metrics
module Trace = Mlpart_obs.Trace
module P = Protocol

type config = {
  workers : int;
  jobs : int;
  queue_capacity : int;
  client_inflight : int;
  cache_capacity : int;
  coarsen_seed : int;
  max_retries : int;
  retry_base_ms : int;
  retry_cap_ms : int;
  default_timeout_ms : int option;
  faults : Faults.config;
}

let default =
  {
    workers = 1;
    jobs = 1;
    queue_capacity = 64;
    client_inflight = 16;
    cache_capacity = 32;
    coarsen_seed = 1;
    max_retries = 2;
    retry_base_ms = 1;
    retry_cap_ms = 50;
    default_timeout_ms = None;
    faults = Faults.none;
  }

(* The request ledger: received = completed + rejected + failed, exactly.
   Every submit_line increments received; every path below reaches exactly
   one terminal counter. *)
let m_received = Metrics.counter "serve.requests.received"
let m_completed = Metrics.counter "serve.requests.completed"
let m_degraded = Metrics.counter "serve.requests.degraded"
let m_rejected = Metrics.counter "serve.requests.rejected"
let m_failed = Metrics.counter "serve.requests.failed"
let m_rej_queue = Metrics.counter "serve.rejected.queue_full"
let m_rej_client = Metrics.counter "serve.rejected.client_cap"
let m_rej_drain = Metrics.counter "serve.rejected.draining"
let m_retries = Metrics.counter "serve.retries"
let m_fault_parse = Metrics.counter "serve.faults.parse"
let m_fault_crash = Metrics.counter "serve.faults.crash"
let m_fault_slow = Metrics.counter "serve.faults.slow"
let m_fault_disconnect = Metrics.counter "serve.faults.disconnect"
let g_depth = Metrics.gauge "serve.queue.depth"
let h_wait = Metrics.histogram "serve.queue.wait_ms"
let h_elapsed = Metrics.histogram "serve.job.elapsed_ms"

type ticket = {
  tm : Mutex.t;
  tc : Condition.t;
  mutable reply : P.response option;
}

type outcome = Queued of ticket | Reply of P.response

type job = {
  index : int;  (** fault-injection stream index, assigned at admission *)
  request : P.request;
  enqueued_at : float;
  ticket : ticket;
}

type t = {
  config : config;
  cache : Cache.t;
  m : Mutex.t;
  nonempty : Condition.t;  (** queue gained work or stop was raised *)
  idle : Condition.t;  (** queue empty and nothing in flight *)
  queue : job Queue.t;
  clients : (string, int) Hashtbl.t;  (** queued + running jobs per client *)
  mutable in_flight : int;
  mutable next_index : int;
  mutable accepting : bool;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let config t = t.config

let wait tk =
  Mutex.lock tk.tm;
  while tk.reply = None do
    Condition.wait tk.tc tk.tm
  done;
  let r = Option.get tk.reply in
  Mutex.unlock tk.tm;
  r

let resolve tk r =
  Mutex.lock tk.tm;
  tk.reply <- Some r;
  Condition.broadcast tk.tc;
  Mutex.unlock tk.tm

let now_ms () = float_of_int (Mlpart_util.Clock.now_ns ()) *. 1e-6

let client_count t client =
  Option.value (Hashtbl.find_opt t.clients client) ~default:0

let incr_client t client = Hashtbl.replace t.clients client (client_count t client + 1)

let decr_client t client =
  match client_count t client - 1 with
  | 0 -> Hashtbl.remove t.clients client
  | n -> Hashtbl.replace t.clients client n

(* ---- the partitioning job itself ---- *)

(* The shared intra-job pool is only safe from one orchestrating domain,
   so intra-job parallelism is honoured only in single-worker engines. *)
let intra_pool t =
  if t.config.workers = 1 && t.config.jobs > 1 then
    Some (Pool.get ~jobs:t.config.jobs)
  else None

let load_netlist (req : P.request) =
  let source =
    if req.P.id = "" then "request" else "request " ^ req.P.id
  in
  match req.P.src with
  | P.Inline text -> (
      match Hgr_io.parse_string ~name:"inline" ~mode:Hgr_io.Strict text with
      | Ok parsed -> parsed.Hgr_io.hypergraph
      | Error ds -> raise (Diag.Mlpart_error ds))
  | P.Bench name -> (
      match Suite.find name with
      (* fixed instantiation seed: the daemon's bench netlists are stable
         content, which is what makes them cacheable across requests *)
      | spec -> Suite.instantiate ~seed:1 spec
      | exception Not_found ->
          Diag.fail ~source Diag.Bad_token "unknown benchmark %S" name)
  | P.Path path -> (
      match Netd_io.parse_path ~mode:Hgr_io.Strict path with
      | Ok parsed -> parsed.Hgr_io.hypergraph
      | Error ds -> raise (Diag.Mlpart_error ds)
      | exception Sys_error msg -> Diag.fail ~source Diag.Io_error "%s" msg)

let compute t (req : P.request) ~attempt =
  let h = load_netlist req in
  let ml =
    { Ml.mlc with engine = { Ml.mlc.Ml.engine with Fm.tolerance = req.P.tolerance } }
  in
  let pool = intra_pool t in
  let fp = Cache.fingerprint h in
  (* Coarsening draws come from a content-keyed stream — never from the
     request seed — so every request for the same netlist wants the same
     hierarchy and a cache hit is bit-identical to the cold rebuild. *)
  let coarsen_rng () =
    Rng.stream (Rng.create t.config.coarsen_seed) (Int64.to_int fp land max_int)
  in
  (* The coarsening configuration (MLc) and [coarsen_seed] are fixed for
     the engine's lifetime, and one cache belongs to one engine, so the
     fingerprint alone keys a hierarchy. *)
  let key = Printf.sprintf "%Lx" fp in
  let hier, cache_flag =
    match Cache.find t.cache key with
    | Cache.Hit hier -> (hier, `Hit)
    | Cache.Miss | Cache.Corrupt ->
        let hier = Ml.hierarchy ~config:ml ?pool (coarsen_rng ()) h in
        Cache.add t.cache key hier;
        (hier, `Miss)
  in
  let deadline =
    match req.P.timeout_ms with
    | Some ms -> Some (Deadline.make ~seconds:(float_of_int ms /. 1000.))
    | None ->
        Option.map
          (fun ms -> Deadline.make ~seconds:(float_of_int ms /. 1000.))
          t.config.default_timeout_ms
  in
  let arena = Fm.create_arena ~h () in
  let r, completed =
    Multistart.best ?deadline ~starts:req.P.starts
      ~cut:(fun r -> r.Ml.cut)
      (fun rng -> Ml.run_hierarchy ~config:ml ?pool ~arena rng h hier)
      (Rng.create req.P.seed)
  in
  let timed_out = completed < req.P.starts in
  let diags =
    if timed_out then
      [
        Diag.warning
          ~source:(if req.P.id = "" then "request" else "request " ^ req.P.id)
          Diag.Timeout
          "deadline exceeded after %d of %d start(s); best-so-far returned"
          completed req.P.starts;
      ]
    else []
  in
  P.make_response ~cut:r.Ml.cut
    ?side:(if req.P.return_side then Some r.Ml.side else None)
    ~cache:cache_flag ~attempts:(attempt + 1) ~diags ~id:req.P.id
    (if timed_out then P.Degraded else P.Done)

(* Decorrelated-jitter backoff, deterministic per (request, attempt): the
   sleep for attempt n replays the same jittered growth sequence. *)
let backoff_ms t ~index ~attempt =
  let base = Stdlib.max 1 t.config.retry_base_ms in
  let cap = Stdlib.max base t.config.retry_cap_ms in
  let rng =
    Rng.stream
      (Rng.create (t.config.faults.Faults.seed lxor 0x5bd1e995))
      ((index * Faults.max_attempts) + attempt)
  in
  let rec grow n prev =
    if n <= 0 then prev
    else grow (n - 1) (Stdlib.min cap (base + Rng.int rng (Stdlib.max 1 (3 * prev))))
  in
  grow attempt base

let fail_response (req : P.request) ~attempt ds =
  P.make_response ~attempts:(attempt + 1) ~diags:ds ~id:req.P.id P.Failed

(* Crash isolation: whatever happens inside an attempt — injected faults,
   library diagnostics, unexpected exceptions — is converted to a typed
   response here.  Nothing escapes into the worker loop, so one hostile
   job can never poison the pool. *)
let execute t job =
  let req = job.request in
  let started = now_ms () in
  Metrics.observe h_wait (int_of_float (started -. job.enqueued_at));
  let source =
    if req.P.id = "" then "request" else "request " ^ req.P.id
  in
  let rec attempt_loop attempt =
    let fault = Faults.decide t.config.faults ~request:job.index ~attempt in
    match
      (match fault with
      | Some (Faults.Crash transient) ->
          Metrics.incr m_fault_crash;
          raise (Faults.Injected { transient })
      | Some (Faults.Slow ms) ->
          Metrics.incr m_fault_slow;
          Unix.sleepf (float_of_int ms /. 1000.);
          compute t req ~attempt
      | Some Faults.Disconnect | Some Faults.Garble_parse | None ->
          compute t req ~attempt)
    with
    | resp ->
        if fault = Some Faults.Disconnect then begin
          Metrics.incr m_fault_disconnect;
          { resp with P.drop = true }
        end
        else resp
    | exception Faults.Injected { transient } ->
        if transient && attempt < t.config.max_retries then begin
          Metrics.incr m_retries;
          Unix.sleepf (float_of_int (backoff_ms t ~index:job.index ~attempt) /. 1000.);
          attempt_loop (attempt + 1)
        end
        else
          fail_response req ~attempt
            [
              Diag.error ~source Diag.Invariant
                "injected worker crash (%s) on attempt %d"
                (if transient then "transient" else "permanent")
                (attempt + 1);
            ]
    | exception Diag.Mlpart_error ds -> fail_response req ~attempt ds
    | exception exn ->
        fail_response req ~attempt
          [
            Diag.error ~source Diag.Invariant "worker exception: %s"
              (Printexc.to_string exn);
          ]
  in
  let t0 = Trace.start () in
  let resp = attempt_loop 0 in
  let elapsed = int_of_float (now_ms () -. started) in
  Metrics.observe h_elapsed elapsed;
  if Trace.enabled () then
    Trace.complete ~cat:"serve"
      ~args:
        [
          ("index", Trace.Int job.index);
          ("status", Trace.Str (P.status_name resp.P.status));
          ("attempts", Trace.Int resp.P.attempts);
          ( "cache",
            Trace.Str
              (match resp.P.cache with
              | `Hit -> "hit"
              | `Miss -> "miss"
              | `None -> "none") );
        ]
      "serve/request" t0;
  { resp with P.elapsed_ms = elapsed }

let finish t job resp =
  (match resp.P.status with
  | P.Done -> Metrics.incr m_completed
  | P.Degraded ->
      Metrics.incr m_completed;
      Metrics.incr m_degraded
  | P.Failed -> Metrics.incr m_failed
  | P.Rejected -> Metrics.incr m_rejected);
  Mutex.lock t.m;
  t.in_flight <- t.in_flight - 1;
  decr_client t job.request.P.client;
  if Queue.is_empty t.queue && t.in_flight = 0 then Condition.broadcast t.idle;
  Mutex.unlock t.m;
  resolve job.ticket resp

let rec worker_loop t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.stop do
    Condition.wait t.nonempty t.m
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.m
  else begin
    let job = Queue.pop t.queue in
    t.in_flight <- t.in_flight + 1;
    Metrics.set_gauge g_depth (float_of_int (Queue.length t.queue));
    Mutex.unlock t.m;
    let resp = execute t job in
    finish t job resp;
    worker_loop t
  end

let create ?(config = default) () =
  Metrics.enable ();
  let t =
    {
      config;
      cache = Cache.create ~capacity:config.cache_capacity;
      m = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      clients = Hashtbl.create 16;
      in_flight = 0;
      next_index = 0;
      accepting = true;
      stop = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (Stdlib.max 1 config.workers) (fun _ ->
        Domain.spawn (fun () -> worker_loop t));
  t

let stats_json t =
  Mutex.lock t.m;
  let depth = Queue.length t.queue in
  let in_flight = t.in_flight in
  let accepting = t.accepting in
  Mutex.unlock t.m;
  Json.Obj
    [
      ("accepting", Json.Bool accepting);
      ("queue_depth", Json.Int depth);
      ("in_flight", Json.Int in_flight);
      ("cache_entries", Json.Int (Cache.length t.cache));
      ("cache_capacity", Json.Int (Cache.capacity t.cache));
      ("metrics", Metrics.to_json ());
    ]

let reject ~(req : P.request) ~counter ~retry_after_ms msg =
  Metrics.incr m_rejected;
  Metrics.incr counter;
  let source =
    if req.P.id = "" then "request" else "request " ^ req.P.id
  in
  Reply
    (P.make_response ~retry_after_ms
       ~diags:[ Diag.error ~source Diag.Queue_full "%s" msg ]
       ~id:req.P.id P.Rejected)

let submit_line t line =
  Metrics.incr m_received;
  Mutex.lock t.m;
  let index = t.next_index in
  t.next_index <- index + 1;
  Mutex.unlock t.m;
  let line =
    match Faults.decide t.config.faults ~request:index ~attempt:0 with
    | Some Faults.Garble_parse ->
        Metrics.incr m_fault_parse;
        String.sub line 0 (String.length line / 2)
    | _ -> line
  in
  match P.query_of_line line with
  | Error ds ->
      Metrics.incr m_failed;
      Reply (P.make_response ~diags:ds ~id:"" P.Failed)
  | Ok (P.Ping id) ->
      Metrics.incr m_completed;
      Reply (P.make_response ~id P.Done)
  | Ok (P.Stats id) ->
      Metrics.incr m_completed;
      Reply (P.make_response ~id ~stats:(stats_json t) P.Done)
  | Ok (P.Partition req) ->
      Mutex.lock t.m;
      if not t.accepting then begin
        Mutex.unlock t.m;
        reject ~req ~counter:m_rej_drain ~retry_after_ms:100
          "server is draining; resubmit to the next instance"
      end
      else begin
        let depth = Queue.length t.queue in
        if depth >= t.config.queue_capacity then begin
          let busy = depth + t.in_flight in
          Mutex.unlock t.m;
          reject ~req ~counter:m_rej_queue
            ~retry_after_ms:(Stdlib.max 10 (10 * busy))
            (Printf.sprintf "queue full (%d pending)" depth)
        end
        else if client_count t req.P.client >= t.config.client_inflight then begin
          Mutex.unlock t.m;
          reject ~req ~counter:m_rej_client ~retry_after_ms:20
            (Printf.sprintf "client %S already has %d job(s) in flight"
               req.P.client t.config.client_inflight)
        end
        else begin
          incr_client t req.P.client;
          let ticket =
            { tm = Mutex.create (); tc = Condition.create (); reply = None }
          in
          Queue.push
            { index; request = req; enqueued_at = now_ms (); ticket }
            t.queue;
          Metrics.set_gauge g_depth (float_of_int (Queue.length t.queue));
          Condition.signal t.nonempty;
          Mutex.unlock t.m;
          Queued ticket
        end
      end

let drain t =
  Mutex.lock t.m;
  t.accepting <- false;
  while not (Queue.is_empty t.queue && t.in_flight = 0) do
    Condition.wait t.idle t.m
  done;
  t.stop <- true;
  Condition.broadcast t.nonempty;
  let domains = t.domains in
  t.domains <- [];
  Mutex.unlock t.m;
  List.iter Domain.join domains;
  (* drain-then-exit ordering: the shared intra-job pool joins here, while
     provably idle, not in a racing at_exit hook *)
  Pool.drain_shared ()
