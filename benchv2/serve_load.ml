(* The serve-mix workload: one mlpart serve daemon with one worker, driven
   over its Unix-domain socket by a closed loop of two connections. *)

module Json = Mlpart_obs.Json
module H = Mlpart_hypergraph.Hypergraph
module Hgr_io = Mlpart_hypergraph.Hgr_io
module Protocol = Mlpart_serve.Protocol
module Cache = Mlpart_serve.Cache
module Ml = Mlpart_multilevel.Ml
open Benchv2
open Harness

let connections = 2

(* Requests the traced daemon may see, so that its 65,536-event trace
   ring never wraps. *)
let traced_max = 400

type inputs = {
  designs : (string * string * H.t) array;  (** file, text, netlist *)
  bases : string array;  (** miss base netlist texts *)
}

let inputs env =
  let designs =
    generate_inputs env
      (List.map
         (fun c -> (c, Workload.circuit_seed))
         (Workload.circuits Workload.Serve_mix))
    |> List.map snd |> Array.of_list
  in
  let bases =
    generate_inputs env
      (List.init Workload.miss_bases (fun b ->
           ("primary1", Workload.circuit_seed + 1 + b)))
    |> List.map (fun (_, (_, text, _)) -> text)
    |> Array.of_list
  in
  { designs; bases }

let miss_text inputs j =
  Workload.miss_text ~base:inputs.bases.(j mod Workload.miss_bases) j

let line env inputs i =
  let src =
    match Workload.serve_src i with
    | Workload.Design d ->
        let file, _, _ = inputs.designs.(d) in
        Protocol.Path file
    | Workload.Miss j -> Protocol.Inline (miss_text inputs j)
  in
  Workload.serve_request ~seed:env.seed ~src i

let netlist inputs i =
  match Workload.serve_src i with
  | Workload.Design d ->
      let _, text, h = inputs.designs.(d) in
      (text, h)
  | Workload.Miss j ->
      let text = miss_text inputs j in
      (text, parse_hgr ~name:"miss" text)

(* (verified cut, balanced) of reply line [reply] to request [i]. *)
let check_reply inputs i reply =
  match Protocol.response_of_line reply with
  | Error m -> (Error m, true)
  | Ok r when r.Protocol.rid <> string_of_int i ->
      (Error (Printf.sprintf "reply %S to request %d" r.Protocol.rid i), true)
  | Ok r -> (
      match (r.Protocol.status, r.Protocol.cut, r.Protocol.side) with
      | Protocol.Done, Some reported, Some side ->
          judge Workload.Serve_mix (snd (netlist inputs i)) ~k:2 ~reported side
      | status, _, _ ->
          let diags =
            List.map
              (fun d -> "; " ^ Mlpart_util.Diag.to_string d)
              r.Protocol.diags
          in
          ( Error (Protocol.status_name status ^ String.concat "" diags),
            true ))

(* ---- the daemon and its connections ---- *)

type daemon = {
  pid : int;
  socket : string;
  mutable sent : int;  (** lines sent so far: the next job index *)
}

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
      (* a wedged daemon fails the run instead of hanging it *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
      Some (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let roundtrip (_, ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

(* One request on a fresh connection. *)
let request d line =
  match connect d.socket with
  | None -> None
  | Some ((fd, _, _) as c) ->
      d.sent <- d.sent + 1;
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> Some (roundtrip c line))

(* Start a daemon and warm it up: the repeat designs enter the hierarchy
   cache, and [miss_bases] inline netlists exercise the miss path. *)
let start env inputs ~traced =
  let socket = env.work // "serve.sock" and err = env.work // "serve.err" in
  let args =
    [ "serve"; socket; "--workers"; "1" ]
    @ if traced then [ "--trace"; env.work // "serve-trace.json" ] else []
  in
  let pid = Proc.spawn mlpart args ~stdout:(env.work // "serve.out") ~stderr:err in
  let d = { pid; socket; sent = 0 } in
  let deadline = Proc.now_ms () +. 10_000. in
  let rec wait_ready () =
    match request d {|{"op":"ping","id":"ready"}|} with
    | Some _ -> ()
    | None when Proc.now_ms () < deadline ->
        Unix.sleepf 0.005;
        wait_ready ()
    | None -> failwith ("serve daemon did not start: " ^ first_line (read err))
  in
  let warm k src =
    let line = Workload.serve_request ~seed:env.seed ~src (1_000_000 + k) in
    match Option.map Protocol.response_of_line (request d line) with
    | Some (Ok { Protocol.status = Protocol.Done; _ }) -> ()
    | _ -> failwith "serve warm-up request failed"
  in
  match
    wait_ready ();
    Array.iteri (fun k (file, _, _) -> warm k (Protocol.Path file)) inputs.designs;
    for j = 0 to Workload.miss_bases - 1 do
      warm (Array.length inputs.designs + j) (Protocol.Inline (miss_text inputs j))
    done
  with
  | () -> d
  | exception e ->
      ignore (Proc.terminate pid);
      raise e

let stop d =
  let code = Proc.terminate d.pid in
  if code <> 0 then failwith (Printf.sprintf "serve daemon exited %d" code)

let stats d =
  match Option.map Json.of_string (request d {|{"op":"stats","id":"bench"}|}) with
  | Some (Ok j) -> Layers.stats_metrics j
  | _ -> failwith "serve stats query failed"

(* Closed loop over [connections] connections, each driven by a domain of
   its own: each sends its next request when the previous reply arrives
   and it has timed the reference loop.  Ops [0 .. limit-1] run, or fewer
   once [seconds] have passed and [min_ops] ran.  Replies are checked
   after the window, off the clock.  Returns each sample, in completion
   order, with its reply line. *)
let window env inputs d ~seconds ~min_ops ~limit =
  let next = Atomic.make 0 and unconnected = Atomic.make false in
  let m = Mutex.create () in
  let out = ref [] in
  let t0 = Proc.now_ms () in
  let client () =
    match connect d.socket with
    | None -> Atomic.set unconnected true
    | Some ((fd, _, _) as c) ->
        let rec loop before =
          let i = Atomic.fetch_and_add next 1 in
          let open_ = i < min_ops || Proc.now_ms () -. t0 < seconds *. 1000. in
          if i < limit && open_ then begin
            let line = line env inputs i in
            let s = Proc.now_ms () in
            let reply =
              match roundtrip c line with
              | reply -> Ok reply
              | exception (Sys_error _ | End_of_file) -> Error "connection lost"
            in
            let e = Proc.now_ms () in
            let after = Host.reference_ms () in
            Mutex.protect m (fun () ->
                out := (e, i, e -. s, Host.factor ~before ~after, reply) :: !out);
            if Result.is_ok reply then loop after
          end
        in
        loop (Host.reference_ms ());
        Unix.close fd
  in
  List.iter Domain.join (List.init connections (fun _ -> Domain.spawn client));
  if Atomic.get unconnected then failwith "cannot connect to the serve daemon";
  d.sent <- d.sent + List.length !out;
  List.fold_left_map
    (fun previous (done_at, i, ms, host, reply) ->
      let cut, balanced =
        match reply with
        | Error e -> (Error e, true)
        | Ok line -> check_reply inputs i line
      in
      let cut = Result.map_error (Printf.sprintf "request %d: %s" i) cut in
      ( done_at,
        ( { index = i; ms; held_ms = done_at -. previous; host; rss_kb = 0; cut; balanced },
          Result.value reply ~default:"" ) ))
    t0 (List.sort compare !out)
  |> snd

let run env =
  let (inputs, d), setup_s =
    repeat_setup (fun ~last ->
        let inputs = inputs env in
        let d = start env inputs ~traced:false in
        if not last then stop d;
        (inputs, d))
  in
  Fun.protect
    ~finally:(fun () -> ignore (Proc.terminate d.pid))
    (fun () ->
      let op_list = Workload.op_list Workload.Serve_mix in
      let samples =
        List.map fst
          (window env inputs d ~seconds:env.seconds ~min_ops:op_list ~limit:max_int)
      in
      let daemon_rss_kb = Proc.vm_hwm_kb d.pid in
      (samples, end_to_end ~op_list ~setup_s ~daemon_rss_kb samples))

(* Traced rerun: the same ops go to an untraced daemon and then to a
   traced one, each fresh and warmed up the same way. *)
let traced env =
  let inputs = inputs env in
  let lib_ops = List.init 16 Fun.id in
  let plain =
    let d = start env inputs ~traced:false in
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        window env inputs d ~seconds:(env.seconds /. 2.)
          ~min_ops:(List.length lib_ops) ~limit:traced_max)
  in
  let n = List.length plain in
  let d = start env inputs ~traced:true in
  (* warm-up and control lines took the job indices before this one *)
  let first_job = d.sent in
  let before, traced, after =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        let before = stats d in
        let traced = window env inputs d ~seconds:infinity ~min_ops:n ~limit:n in
        (before, traced, stats d))
  in
  let traced =
    List.map
      (fun ((t : sample), reply) ->
        match List.find_opt (fun ((p : sample), _) -> p.index = t.index) plain with
        | Some (p, _) -> (same_cut ~plain:p t, reply)
        | None -> (t, reply))
      traced
  in
  let spans, dropped = Spans.of_json (parse_json (env.work // "serve-trace.json")) in
  let requests =
    List.filter
      (fun r ->
        let s = r.Spans.span in
        s.Spans.name = "serve/request"
        && Option.value (Json.int_member "index" s.Spans.args) ~default:(-1) >= first_job)
      (Spans.forest spans)
  in
  let nf = float_of_int n in
  let times =
    List.fold_left (fun acc r -> Layers.add_tree acc r) [] requests
    |> List.map (fun (l, v) -> (l, v /. nf))
  in
  let service_p50 cache =
    List.filter_map
      (fun r ->
        let s = r.Spans.span in
        if Json.str_member "cache" s.Spans.args = Some cache then
          Some (s.Spans.dur /. 1000.)
        else None)
      requests
    |> Array.of_list
    |> fun a -> if a = [||] then 0. else Stats.percentile 50. a
  in
  let mean_ms samples = mean_over samples (fun ((s : sample), _) -> s.ms) in
  let latency = mean_ms traced in
  let pct ms = 100. *. ms /. latency in
  let wait = Layers.histogram_mean ~before ~after "serve.queue.wait_ms" in
  let service = Layers.histogram_mean ~before ~after "serve.job.elapsed_ms" in
  let delta name =
    float_of_int (Layers.counter after name - Layers.counter before name)
  in
  let netlists =
    List.map
      (fun i ->
        let text, h = netlist inputs i in
        (text, h, Ml.hierarchy ~config:Ml.mlc (Mlpart_util.Rng.create 1) h))
      lib_ops
  in
  let per_netlist f = mean_over netlists (fun n -> time_ms (fun () -> f n)) in
  let responses =
    List.filter_map
      (fun ((s : sample), reply) ->
        if List.mem s.index lib_ops then
          Result.to_option (Protocol.response_of_line reply)
        else None)
      traced
  in
  let decode i =
    let line = line env inputs i in
    time_ms (fun () -> Protocol.query_of_line line)
  in
  let hits = delta "serve.cache.hits" and misses = delta "serve.cache.misses" in
  let values =
    Layers.breakdown ~wall_ms:latency times
    @ [
        ( "hgr_io.parse_ms",
          per_netlist (fun (text, _, _) ->
              Hgr_io.parse_string ~mode:Hgr_io.Strict text) );
        ("protocol.decode_pct", pct (mean_over lib_ops decode));
        ( "protocol.encode_pct",
          pct
            (mean_over responses (fun r ->
                 time_ms (fun () -> Protocol.response_to_line r))) );
        ("cache.fingerprint_pct", pct (per_netlist (fun (_, h, _) -> Cache.fingerprint h)));
        ("cache.checksum_pct", pct (per_netlist (fun (_, _, hier) -> Cache.checksum hier)));
        ("serve.queue_wait_pct", pct wait);
        ("serve.transport_pct", pct (latency -. wait -. service));
        ("serve.miss_hit_service_ratio", service_p50 "miss" /. service_p50 "hit");
        ("serve.cache.hit_ratio", if hits +. misses = 0. then 0. else hits /. (hits +. misses));
        ("obs.trace_overhead_pct", 100. *. (latency -. mean_ms plain) /. mean_ms plain);
        ("obs.trace_dropped", float_of_int dropped);
        ("obs.span_coverage_pct", pct (roots_ms requests /. nf));
      ]
    @ List.map (fun (counter, name) -> (name, delta counter /. nf)) Layers.counters
  in
  (List.map fst plain @ List.map fst traced, values)
