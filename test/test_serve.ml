(* Tests for Mlpart_serve: the wire protocol, deterministic fault
   injection, the content-addressed hierarchy cache, admission control,
   deadline degradation, crash isolation with retry, the drain-then-exit
   pool ordering, a 1000-request fault soak with an exact metrics ledger,
   and a socket round-trip. *)

module Protocol = Mlpart_serve.Protocol
module Faults = Mlpart_serve.Faults
module Cache = Mlpart_serve.Cache
module Engine = Mlpart_serve.Engine
module Server = Mlpart_serve.Server
module Hgr_io = Mlpart_hypergraph.Hgr_io
module Hier = Mlpart_multilevel.Hierarchy
module Ml = Mlpart_multilevel.Ml
module Diag = Mlpart_util.Diag
module Rng = Mlpart_util.Rng
module Pool = Mlpart_util.Pool
module Metrics = Mlpart_obs.Metrics
module Trace = Mlpart_obs.Trace
module Json = Mlpart_obs.Json

let check = Alcotest.check

let instance ?(modules = 300) seed =
  let rng = Rng.create seed in
  Mlpart_gen.Generate.rent ~rng ~modules ~nets:(modules * 5 / 4)
    ~pins:(modules * 7 / 2) ()

let inline_hgr ?modules seed = Hgr_io.to_string (instance ?modules seed)

let counter name = Metrics.counter_value (Metrics.counter name)

let request_line ?(id = "r") ?(client = "anon") ?(seed = 1) ?(starts = 1)
    ?(tolerance = 0.1) ?timeout_ms ?(side = false) src =
  Protocol.request_to_line
    { Protocol.id; client; src; seed; starts; tolerance; timeout_ms;
      return_side = side }

(* answer one line through an engine, synchronously *)
let ask engine line =
  match Engine.submit_line engine line with
  | Engine.Reply r -> r
  | Engine.Queued ticket -> Engine.wait ticket

(* ---- protocol ---- *)

let test_protocol_request_roundtrip () =
  let req =
    { Protocol.id = "r9"; client = "alice"; src = Protocol.Bench "balu";
      seed = 7; starts = 4; tolerance = 0.2; timeout_ms = Some 250;
      return_side = true }
  in
  match Protocol.query_of_line (Protocol.request_to_line req) with
  | Ok (Protocol.Partition req') ->
      check Alcotest.bool "request round-trips" true (req = req')
  | Ok _ -> Alcotest.fail "decoded to a control query"
  | Error ds ->
      Alcotest.failf "decode failed: %s"
        (String.concat "; " (List.map Diag.to_string ds))

let test_protocol_defaults_and_controls () =
  (match Protocol.query_of_line {|{"op":"ping","id":"p"}|} with
  | Ok (Protocol.Ping "p") -> ()
  | _ -> Alcotest.fail "ping did not decode");
  (match Protocol.query_of_line {|{"op":"stats"}|} with
  | Ok (Protocol.Stats "") -> ()
  | _ -> Alcotest.fail "stats did not decode");
  match Protocol.query_of_line {|{"bench":"balu"}|} with
  | Ok (Protocol.Partition r) ->
      check Alcotest.int "default seed" 1 r.Protocol.seed;
      check Alcotest.int "default starts" 1 r.Protocol.starts;
      check (Alcotest.float 1e-9) "default tolerance" 0.1 r.Protocol.tolerance;
      check Alcotest.string "default client" "anon" r.Protocol.client;
      check Alcotest.bool "default no timeout" true (r.Protocol.timeout_ms = None)
  | _ -> Alcotest.fail "bare bench request did not decode"

let test_protocol_rejects_hostile_lines () =
  let errs line =
    match Protocol.query_of_line line with
    | Error ds -> ds
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  (* non-JSON is a bad-header *)
  (match errs "GET / HTTP/1.1" with
  | [ d ] -> check Alcotest.bool "bad-header" true (d.Diag.code = Diag.Bad_header)
  | ds -> Alcotest.failf "expected one diag, got %d" (List.length ds));
  (* every field problem is reported, not just the first *)
  let ds =
    errs {|{"bench":"balu","hgr":"x","starts":0,"k":3,"tolerance":-1}|}
  in
  check Alcotest.bool "collects all problems" true (List.length ds >= 4);
  List.iter
    (fun d -> check Alcotest.bool "typed bad-token" true (d.Diag.code = Diag.Bad_token))
    ds

let test_protocol_response_roundtrip () =
  let resp =
    Protocol.make_response ~cut:41 ~side:[| 0; 1; 1; 0 |] ~cache:`Hit
      ~retry_after_ms:20 ~attempts:2 ~elapsed_ms:17
      ~diags:
        [
          Diag.warning ~source:"request r1" Diag.Timeout "deadline exceeded";
          Diag.error ~source:"request r1" Diag.Queue_full "queue full";
        ]
      ~id:"r1" Protocol.Degraded
  in
  match Protocol.response_of_line (Protocol.response_to_line resp) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok r ->
      check Alcotest.bool "round-trips" true (resp = r)

let test_protocol_exit_codes () =
  let code ?diags status =
    Protocol.exit_code_of_response (Protocol.make_response ?diags ~id:"x" status)
  in
  check Alcotest.int "ok" 0 (code Protocol.Done);
  check Alcotest.int "degraded" 5 (code Protocol.Degraded);
  check Alcotest.int "rejected" 6 (code Protocol.Rejected);
  check Alcotest.int "failed default" 3 (code Protocol.Failed);
  check Alcotest.int "failed invariant" 4
    (code Protocol.Failed
       ~diags:[ Diag.error ~source:"" Diag.Invariant "boom" ]);
  (* the queue-full code maps to the new exit 6 in the CLI taxonomy *)
  check Alcotest.int "diag exit for queue-full" 6
    (Diag.exit_code [ Diag.error ~source:"" Diag.Queue_full "full" ])

(* ---- fault injection ---- *)

let test_faults_deterministic () =
  let c = Faults.uniform ~seed:99 ~rate:0.3 in
  for request = 0 to 500 do
    for attempt = 0 to 3 do
      check Alcotest.bool "replays identically" true
        (Faults.decide c ~request ~attempt = Faults.decide c ~request ~attempt)
    done
  done;
  check Alcotest.bool "none injects nothing" true
    (Faults.decide Faults.none ~request:3 ~attempt:0 = None)

let test_faults_distribution () =
  let c = Faults.uniform ~seed:7 ~rate:0.2 in
  let garble = ref 0 and crash = ref 0 and slow = ref 0 and disc = ref 0 in
  let n = 4000 in
  for request = 0 to n - 1 do
    match Faults.decide c ~request ~attempt:0 with
    | Some Faults.Garble_parse -> incr garble
    | Some (Faults.Crash _) -> incr crash
    | Some (Faults.Slow _) -> incr slow
    | Some Faults.Disconnect -> incr disc
    | None -> ()
  done;
  let total = !garble + !crash + !slow + !disc in
  check Alcotest.bool "every kind fires" true
    (!garble > 0 && !crash > 0 && !slow > 0 && !disc > 0);
  (* rate 0.2 over 4000 requests: expect ~800, allow wide slack *)
  check Alcotest.bool "total near the configured rate" true
    (total > 600 && total < 1000);
  (* parse corruption happens before decoding, so a retry never re-garbles *)
  for request = 0 to n - 1 do
    match Faults.decide c ~request ~attempt:1 with
    | Some Faults.Garble_parse ->
        Alcotest.failf "garble on attempt 1 of request %d" request
    | _ -> ()
  done

(* ---- hierarchy cache ---- *)

let content_rng ~coarsen_seed fp =
  Rng.stream (Rng.create coarsen_seed) (Int64.to_int fp land max_int)

let build_hier h =
  Ml.hierarchy (content_rng ~coarsen_seed:1 (Cache.fingerprint h)) h

let test_cache_fingerprint () =
  let h = instance 5 in
  check Alcotest.bool "stable" true (Cache.fingerprint h = Cache.fingerprint h);
  check Alcotest.bool "content-sensitive" true
    (Cache.fingerprint h <> Cache.fingerprint (instance 6))

let test_cache_hit_bit_identical () =
  let h = instance 5 in
  let cache = Cache.create ~capacity:4 in
  let fp = Cache.fingerprint h in
  let key = Printf.sprintf "%Lx" fp in
  (* cold: build, refine, remember *)
  let hier = build_hier h in
  Cache.add cache key hier;
  let cold = Ml.run_hierarchy (Rng.create 7) h hier in
  (* warm: the cached hierarchy must reproduce the cold run bit for bit *)
  match Cache.find cache key with
  | Cache.Hit cached ->
      let warm = Ml.run_hierarchy (Rng.create 7) h cached in
      check Alcotest.int "same cut" cold.Ml.cut warm.Ml.cut;
      check Alcotest.bool "same side assignment" true
        (cold.Ml.side = warm.Ml.side)
  | Cache.Miss | Cache.Corrupt -> Alcotest.fail "expected a hit"

let test_cache_eviction_respects_capacity () =
  let cache = Cache.create ~capacity:2 in
  let h1 = instance 11 and h2 = instance 12 and h3 = instance 13 in
  Cache.add cache "k1" (build_hier h1);
  Cache.add cache "k2" (build_hier h2);
  (* touch k1 so k2 is the LRU victim *)
  (match Cache.find cache "k1" with
  | Cache.Hit _ -> ()
  | _ -> Alcotest.fail "k1 should hit");
  Cache.add cache "k3" (build_hier h3);
  check Alcotest.int "capacity held" 2 (Cache.length cache);
  (match Cache.find cache "k2" with
  | Cache.Miss -> ()
  | _ -> Alcotest.fail "LRU entry should have been evicted");
  match (Cache.find cache "k1", Cache.find cache "k3") with
  | Cache.Hit _, Cache.Hit _ -> ()
  | _ -> Alcotest.fail "recent entries should survive"

let test_cache_detects_corruption () =
  let h = instance 5 in
  let cache = Cache.create ~capacity:4 in
  let hier = build_hier h in
  Cache.add cache "k" hier;
  let level =
    match hier.Hier.levels with
    | l :: _ -> l
    | [] -> Alcotest.fail "expected a non-trivial hierarchy"
  in
  (* corrupt the shared value behind the cache's back *)
  let corrupted = counter "serve.cache.corrupt" in
  level.Hier.cluster_of.(0) <- level.Hier.cluster_of.(0) + 1;
  (match Cache.find cache "k" with
  | Cache.Corrupt -> ()
  | Cache.Hit _ -> Alcotest.fail "served a corrupted entry"
  | Cache.Miss -> Alcotest.fail "corruption must be distinguishable");
  check Alcotest.int "corruption counted" (corrupted + 1)
    (counter "serve.cache.corrupt");
  (* the poisoned entry is gone: the caller rebuilds and re-adds *)
  (match Cache.find cache "k" with
  | Cache.Miss -> ()
  | _ -> Alcotest.fail "corrupt entry should have been dropped");
  level.Hier.cluster_of.(0) <- level.Hier.cluster_of.(0) - 1;
  Cache.add cache "k" (build_hier h);
  match Cache.find cache "k" with
  | Cache.Hit recomputed ->
      check Alcotest.bool "recomputed entry verifies" true
        (Cache.checksum recomputed = Cache.checksum hier)
  | _ -> Alcotest.fail "rebuilt entry should hit"

(* ---- pool drain ordering (PR satellite) ---- *)

let test_pool_drain_then_exit () =
  (* a job is mid-flight on the shared pool when drain_shared runs: it must
     wait for idle, join cleanly, and leave get() able to mint a new pool *)
  let pool = Pool.get ~jobs:2 in
  let started = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        ignore
          (Pool.map pool
             (fun ms ->
               Atomic.set started true;
               Unix.sleepf (float_of_int ms /. 1000.);
               ms)
             [| 20; 20; 20; 20 |]
            : int array))
      ()
  in
  while not (Atomic.get started) do
    Thread.yield ()
  done;
  Pool.drain_shared ();
  Thread.join th;
  let pool' = Pool.get ~jobs:2 in
  let doubled = Pool.map pool' (fun x -> 2 * x) [| 1; 2; 3 |] in
  check Alcotest.bool "fresh shared pool works after drain" true
    (doubled = [| 2; 4; 6 |]);
  Pool.drain_shared ()

(* ---- engine ---- *)

let test_engine_cache_hit_skips_coarsen () =
  let engine = Engine.create ~config:{ Engine.default with cache_capacity = 4 } () in
  let text = inline_hgr 21 in
  let line id = request_line ~id ~seed:9 ~side:true (Protocol.Inline text) in
  Trace.enable ();
  let cold = ask engine (line "cold") in
  let has_span name =
    List.exists (fun e -> e.Trace.name = name) (Trace.events ())
  in
  let cold_coarsened = has_span "ml/coarsen" in
  Trace.reset ();
  let warm = ask engine (line "warm") in
  let warm_coarsened = has_span "ml/coarsen" in
  let warm_refined = has_span "ml/refine" in
  Trace.disable ();
  Engine.drain engine;
  check Alcotest.bool "cold run coarsens" true cold_coarsened;
  check Alcotest.bool "warm run skips coarsening" false warm_coarsened;
  check Alcotest.bool "warm run still refines" true warm_refined;
  check Alcotest.bool "miss then hit" true
    (cold.Protocol.cache = `Miss && warm.Protocol.cache = `Hit);
  check Alcotest.bool "cuts equal" true (cold.Protocol.cut = warm.Protocol.cut);
  check Alcotest.bool "sides bit-identical" true
    (cold.Protocol.side = warm.Protocol.side
    && cold.Protocol.side <> None)

(* A .net path request picks up the sibling .are, as the CLI does: it
   answers exactly as the area-aware netlist sent inline. *)
let test_engine_path_reads_sibling_are () =
  let module Netd_io = Mlpart_hypergraph.Netd_io in
  let h = instance 24 in
  let net = Filename.temp_file "mlpart-serve" ".net" in
  let are = Filename.remove_extension net ^ ".are" in
  let write path text =
    Out_channel.with_open_text path (fun oc -> output_string oc text)
  in
  let answer src =
    let engine = Engine.create () in
    let r = ask engine (request_line ~seed:3 ~side:true src) in
    Engine.drain engine;
    r
  in
  let by_path, inline =
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove [ net; are ])
      (fun () ->
        write net (Netd_io.write_net_string h);
        write are
          (String.concat ""
             (List.init (Mlpart_hypergraph.Hypergraph.num_modules h) (fun v ->
                  Printf.sprintf "a%d %d\n" v (1 + (v mod 5)))));
        let with_areas = Netd_io.read_files ~are_path:are net in
        ( answer (Protocol.Path net),
          answer (Protocol.Inline (Hgr_io.to_string with_areas)) ))
  in
  check Alcotest.bool "answered" true (by_path.Protocol.status = Protocol.Done);
  check Alcotest.(option int) "same cut" inline.Protocol.cut by_path.Protocol.cut;
  check Alcotest.bool "same side" true
    (by_path.Protocol.side = inline.Protocol.side && inline.Protocol.side <> None)

let test_engine_deadline_degrades () =
  let engine = Engine.create () in
  let resp =
    ask engine
      (request_line ~id:"doomed" ~starts:8 ~timeout_ms:1
         (Protocol.Inline (inline_hgr 22)))
  in
  Engine.drain engine;
  check Alcotest.bool "degraded" true (resp.Protocol.status = Protocol.Degraded);
  check Alcotest.bool "still has a partition" true (resp.Protocol.cut <> None);
  check Alcotest.bool "carries a timeout warning" true
    (List.exists
       (fun d -> d.Diag.code = Diag.Timeout && d.Diag.severity = Diag.Warning)
       resp.Protocol.diags);
  check Alcotest.int "maps to exit 5" 5 (Protocol.exit_code_of_response resp)

let test_engine_admission_control () =
  (* every job sleeps 150 ms, so one occupies the worker while the queue
     (capacity 3) and the per-client cap (2) fill deterministically *)
  let faults =
    { Faults.none with Faults.seed = 1; slow_p = 1.0; slow_ms = 150 }
  in
  let config =
    { Engine.default with
      Engine.queue_capacity = 3; client_inflight = 2; faults }
  in
  let engine = Engine.create ~config () in
  let text = inline_hgr ~modules:40 23 in
  let submit id client =
    Engine.submit_line engine (request_line ~id ~client (Protocol.Inline text))
  in
  let rej_queue0 = counter "serve.rejected.queue_full" in
  let rej_client0 = counter "serve.rejected.client_cap" in
  let t1 = submit "a1" "alice" in
  (* wait until the worker has taken a1, so the queue is empty again *)
  let rec wait_pickup n =
    if n = 0 then Alcotest.fail "worker never picked up the job";
    match Json.int_member "queue_depth" (Engine.stats_json engine) with
    | Some 0 -> ()
    | _ ->
        Unix.sleepf 0.005;
        wait_pickup (n - 1)
  in
  wait_pickup 1000;
  (* a1 running; queue fills with b1, a2, b2; alice reaches her cap of 2 *)
  let t2 = submit "b1" "bob" in
  let t3 = submit "a2" "alice" in
  let r_alice = submit "a3" "alice" in
  let t4 = submit "b2" "bob" in
  let r_carol = submit "c1" "carol" in
  (match r_alice with
  | Engine.Reply r ->
      check Alcotest.bool "client cap rejects" true
        (r.Protocol.status = Protocol.Rejected);
      check Alcotest.bool "retry-after hint" true
        (match r.Protocol.retry_after_ms with Some t -> t > 0 | None -> false);
      check Alcotest.bool "queue-full diag" true
        (List.exists (fun d -> d.Diag.code = Diag.Queue_full) r.Protocol.diags);
      check Alcotest.int "exit 6" 6 (Protocol.exit_code_of_response r)
  | Engine.Queued _ -> Alcotest.fail "third alice job should be rejected");
  (match r_carol with
  | Engine.Reply r ->
      check Alcotest.bool "full queue sheds" true
        (r.Protocol.status = Protocol.Rejected);
      check Alcotest.bool "retry-after scales with load" true
        (match r.Protocol.retry_after_ms with Some t -> t >= 10 | None -> false)
  | Engine.Queued _ -> Alcotest.fail "queue is full; carol must be shed");
  check Alcotest.int "client-cap rejection counted" (rej_client0 + 1)
    (counter "serve.rejected.client_cap");
  check Alcotest.int "queue-full rejection counted" (rej_queue0 + 1)
    (counter "serve.rejected.queue_full");
  List.iter
    (fun o ->
      match o with
      | Engine.Queued ticket ->
          let r = Engine.wait ticket in
          check Alcotest.bool "admitted job completes" true
            (r.Protocol.status = Protocol.Done)
      | Engine.Reply _ -> Alcotest.fail "admitted submissions were queued")
    [ t1; t2; t3; t4 ];
  Engine.drain engine

let test_engine_crash_isolation_and_retry () =
  (* every request crashes transiently on its first attempts with p=1 …
     make crashes certain but transient, with retries allowed: every job
     must still come back, some with attempts > 1 after backoff *)
  let faults =
    { Faults.none with
      Faults.seed = 5; crash_p = 0.4; transient_p = 1.0 }
  in
  let config =
    { Engine.default with
      Engine.max_retries = 8; retry_base_ms = 1; retry_cap_ms = 2;
      queue_capacity = 64; client_inflight = 64; faults }
  in
  let engine = Engine.create ~config () in
  let text = inline_hgr ~modules:60 24 in
  let tickets =
    List.init 40 (fun i ->
        Engine.submit_line engine
          (request_line ~id:(Printf.sprintf "c%d" i) (Protocol.Inline text)))
  in
  let responses =
    List.map
      (function Engine.Queued t -> Engine.wait t | Engine.Reply r -> r)
      tickets
  in
  Engine.drain engine;
  check Alcotest.bool "transient crashes never fail the job" true
    (List.for_all (fun r -> r.Protocol.status = Protocol.Done) responses);
  check Alcotest.bool "some jobs recovered by retrying" true
    (List.exists (fun r -> r.Protocol.attempts > 1) responses);
  (* permanent crashes exhaust isolation instead: rerun with transient_p=0 *)
  let engine =
    Engine.create
      ~config:
        { config with
          Engine.faults =
            { faults with Faults.crash_p = 1.0; transient_p = 0.0 } }
      ()
  in
  let r = ask engine (request_line ~id:"perm" (Protocol.Inline text)) in
  Engine.drain engine;
  check Alcotest.bool "permanent crash fails with a diagnostic" true
    (r.Protocol.status = Protocol.Failed
    && List.exists (fun d -> d.Diag.code = Diag.Invariant) r.Protocol.diags)

(* ---- the soak: 1000 requests at a >10% fault rate ---- *)

let test_engine_soak_ledger_balances () =
  let faults = Faults.uniform ~seed:42 ~rate:0.15 in
  (* the queue outsizes the soak so admission never depends on worker
     timing — that is what makes the whole run replayable bit for bit;
     queue-full shedding has its own deterministic test above *)
  let config =
    { Engine.default with
      Engine.workers = 2; queue_capacity = 2048; client_inflight = 2048;
      cache_capacity = 4; max_retries = 3; retry_base_ms = 1;
      retry_cap_ms = 2; faults }
  in
  let engine = Engine.create ~config () in
  let texts = Array.init 3 (fun i -> inline_hgr ~modules:50 (30 + i)) in
  let received0 = counter "serve.requests.received" in
  let completed0 = counter "serve.requests.completed" in
  let rejected0 = counter "serve.requests.rejected" in
  let failed0 = counter "serve.requests.failed" in
  let n = 1000 in
  let soak_line i =
    request_line ~id:(Printf.sprintf "s%d" i) ~seed:i
      (Protocol.Inline texts.(i mod 3))
  in
  let outcomes = List.init n (fun i -> Engine.submit_line engine (soak_line i)) in
  let responses =
    List.map
      (function Engine.Queued t -> Engine.wait t | Engine.Reply r -> r)
      outcomes
  in
  Engine.drain engine;
  let received = counter "serve.requests.received" - received0 in
  let completed = counter "serve.requests.completed" - completed0 in
  let rejected = counter "serve.requests.rejected" - rejected0 in
  let failed = counter "serve.requests.failed" - failed0 in
  check Alcotest.int "every request was received" n received;
  check Alcotest.int "ledger balances exactly" received
    (completed + rejected + failed);
  check Alcotest.int "one response per request" n (List.length responses);
  (* the profile actually exercised every failure mode *)
  check Alcotest.bool "some requests failed" true (failed > 0);
  check Alcotest.bool "most requests completed" true (completed > n / 2);
  check Alcotest.bool "faults were injected" true
    (counter "serve.faults.crash" > 0 && counter "serve.faults.slow" > 0);
  (* client-side view agrees with the server-side ledger *)
  let seen status =
    List.length (List.filter (fun r -> r.Protocol.status = status) responses)
  in
  check Alcotest.int "completed agree" completed
    (seen Protocol.Done + seen Protocol.Degraded);
  check Alcotest.int "rejected agree" rejected (seen Protocol.Rejected);
  check Alcotest.int "failed agree" failed (seen Protocol.Failed);
  (* and the whole soak replays identically: same seed, same ledger *)
  let engine = Engine.create ~config () in
  let failed1 = counter "serve.requests.failed" in
  let replay = List.init n (fun i -> Engine.submit_line engine (soak_line i)) in
  let replay_responses =
    List.map
      (function Engine.Queued t -> Engine.wait t | Engine.Reply r -> r)
      replay
  in
  Engine.drain engine;
  check Alcotest.int "fault schedule replays: same failures" failed
    (counter "serve.requests.failed" - failed1);
  List.iter2
    (fun a b ->
      check Alcotest.bool "replayed status matches" true
        (a.Protocol.status = b.Protocol.status);
      check Alcotest.bool "replayed cut matches" true
        (a.Protocol.cut = b.Protocol.cut))
    responses replay_responses

(* ---- socket round-trip ---- *)

let test_server_socket_roundtrip () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mlpart-test-%d.sock" (Unix.getpid ()))
  in
  let engine = Engine.create () in
  let addr = Server.Unix_path path in
  let server =
    Thread.create (fun () -> Server.run ~max_requests:3 engine addr) ()
  in
  let rec wait_for_socket n =
    if n = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists path) then begin
      Unix.sleepf 0.01;
      wait_for_socket (n - 1)
    end
  in
  wait_for_socket 500;
  let text = inline_hgr ~modules:60 31 in
  Server.with_connection addr (fun ic oc ->
      (match Server.roundtrip ic oc {|{"op":"ping","id":"p1"}|} with
      | Ok r ->
          check Alcotest.bool "ping ok" true (r.Protocol.status = Protocol.Done);
          check Alcotest.string "ping id echoes" "p1" r.Protocol.rid
      | Error e -> Alcotest.failf "ping failed: %s" e);
      (match
         Server.roundtrip ic oc
           (request_line ~id:"sock1" ~side:true (Protocol.Inline text))
       with
      | Ok r ->
          check Alcotest.bool "partition ok" true
            (r.Protocol.status = Protocol.Done);
          check Alcotest.bool "has cut and side" true
            (r.Protocol.cut <> None && r.Protocol.side <> None)
      | Error e -> Alcotest.failf "partition failed: %s" e);
      match Server.roundtrip ic oc "garbage" with
      | Ok r ->
          check Alcotest.bool "garbage fails typed" true
            (r.Protocol.status = Protocol.Failed)
      | Error e -> Alcotest.failf "garbage round-trip lost: %s" e);
  (* three requests served: the budget triggers the drain and run returns *)
  Thread.join server;
  check Alcotest.bool "socket cleaned up" false (Sys.file_exists path)

let () =
  (* cache/engine counters are gated on the shared metrics flag *)
  Metrics.enable ();
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick
            test_protocol_request_roundtrip;
          Alcotest.test_case "defaults and controls" `Quick
            test_protocol_defaults_and_controls;
          Alcotest.test_case "hostile lines" `Quick
            test_protocol_rejects_hostile_lines;
          Alcotest.test_case "response round-trip" `Quick
            test_protocol_response_roundtrip;
          Alcotest.test_case "exit codes" `Quick test_protocol_exit_codes;
        ] );
      ( "faults",
        [
          Alcotest.test_case "deterministic" `Quick test_faults_deterministic;
          Alcotest.test_case "distribution" `Quick test_faults_distribution;
        ] );
      ( "cache",
        [
          Alcotest.test_case "fingerprint" `Quick test_cache_fingerprint;
          Alcotest.test_case "hit is bit-identical" `Quick
            test_cache_hit_bit_identical;
          Alcotest.test_case "eviction respects capacity" `Quick
            test_cache_eviction_respects_capacity;
          Alcotest.test_case "detects corruption" `Quick
            test_cache_detects_corruption;
        ] );
      ( "pool",
        [
          Alcotest.test_case "drain-then-exit ordering" `Quick
            test_pool_drain_then_exit;
        ] );
      ( "engine",
        [
          Alcotest.test_case "cache hit skips coarsening" `Quick
            test_engine_cache_hit_skips_coarsen;
          Alcotest.test_case "path request reads the sibling .are" `Quick
            test_engine_path_reads_sibling_are;
          Alcotest.test_case "deadline degrades gracefully" `Quick
            test_engine_deadline_degrades;
          Alcotest.test_case "admission control" `Quick
            test_engine_admission_control;
          Alcotest.test_case "crash isolation and retry" `Quick
            test_engine_crash_isolation_and_retry;
          Alcotest.test_case "1000-request fault soak" `Slow
            test_engine_soak_ledger_balances;
        ] );
      ( "server",
        [
          Alcotest.test_case "socket round-trip" `Quick
            test_server_socket_roundtrip;
        ] );
    ]
