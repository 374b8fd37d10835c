(* What every workload runner shares: the mlpart binary, scratch files,
   op samples and the end-to-end metrics computed from them. *)

module Hgr_io = Mlpart_hypergraph.Hgr_io
open Benchv2

(* built beside this executable:
   <build>/default/{benchv2/main.exe,bin/mlpart.exe} *)
let mlpart =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/mlpart.exe"

type env = {
  work : string;  (** scratch directory *)
  seed : int;
  seconds : float;
  spawner : Spawner.t;  (** starts the CLI ops' children *)
}

let ( // ) = Filename.concat
let read path = In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let first_line text =
  match String.index_opt text '\n' with
  | Some i -> String.sub text 0 i
  | None -> text

let parse_hgr ~name text =
  match Hgr_io.parse_string ~name ~mode:Hgr_io.Strict text with
  | Ok p -> p.Hgr_io.hypergraph
  | Error _ -> failwith (name ^ ": generated netlist does not parse")

let parse_json path =
  match Mlpart_obs.Json.of_string (read path) with
  | Ok j -> j
  | Error m -> failwith (path ^ ": " ^ m)

(* Median wall time in ms of [f ()], on the same clock as the ops. *)
let time_ms f =
  ignore (Sys.opaque_identity (f ()));
  Stats.median
    (Array.init 7 (fun _ ->
         let t0 = Proc.now_ms () in
         ignore (Sys.opaque_identity (f ()));
         Proc.now_ms () -. t0))

let mean_over items f = Stats.mean (Array.of_list (List.map f items))

(* Total duration in ms of a list of top-level spans. *)
let roots_ms roots =
  List.fold_left (fun acc r -> acc +. (r.Spans.span.Spans.dur /. 1000.)) 0. roots

(* ---- samples ---- *)

(* Samples are kept in completion order. *)
type sample = {
  index : int;  (** position in the op stream *)
  ms : float;  (** wall time of the op *)
  held_ms : float;
      (** wall time the op held the run: its own for CLI ops, which run
          one at a time; since the previous completion for serve *)
  host : float;  (** [Host.factor] around the op *)
  rss_kb : int;
  cut : (int, string) result;  (** verified cut, or why the check failed *)
  balanced : bool;  (** part areas within the balance bounds *)
}

(* Check one answer: the verified cut, and whether its part areas are
   balanced.  An imbalance fails the op only where the workload's engine
   enforces the bounds; elsewhere it shows in balanced_pct. *)
let judge w h ~k ~reported side =
  match Verify.check h ~k ~reported side with
  | Error e -> (Error e, true)
  | Ok cut -> (
      match Verify.imbalance h ~k side with
      | None -> (Ok cut, true)
      | Some why ->
          ((if Workload.enforces_balance w then Error why else Ok cut), false))

(* Mark a traced op failed when its cut differs from the untraced one. *)
let same_cut ~plain traced =
  match (plain.cut, traced.cut) with
  | Ok a, Ok b when a <> b ->
      {
        traced with
        cut =
          Error
            (Printf.sprintf "op %d: traced cut %d, untraced %d" traced.index b a);
      }
  | _ -> traced

(* Run [op 0], [op 1], ... until [seconds] have passed and at least
   [min_ops] ops ran.  [op i before] gets the reference time measured
   after the previous op and returns the one measured after its own. *)
let window ~seconds ~min_ops op =
  let t0 = Proc.now_ms () in
  let rec go i before acc =
    if i >= min_ops && Proc.now_ms () -. t0 >= seconds *. 1000. then
      List.rev acc
    else
      let s, after = op i before in
      go (i + 1) after (s :: acc)
  in
  go 0 (Host.reference_ms ()) []

(* ---- end-to-end metrics ---- *)

let metric name value unit_ spread = { Record.name; value; unit_; spread }

(* A metric's spread is the estimated spread of the value the run reports.
   It comes from the metric's values over five interleaved blocks of the
   samples (block b holds every fifth sample in completion order, from the
   b-th on, so each block sees the same mix of circuits and of cache hits
   and misses): their spread, divided by √5 because the run's value rests
   on five times a block's samples (batch means). *)
let blocks = 5

(* The spread of a value computed from all of [values] together. *)
let batch_spread values =
  Stats.spread values /. Float.sqrt (float_of_int (Array.length values))

(* Times are scaled to the nominal host (see [Host]). *)
let end_to_end ~op_list ~setup_s ?daemon_rss_kb samples =
  let samples = Array.of_list samples in
  let n = Array.length samples in
  let all = List.init n Fun.id in
  let block b = List.filter (fun i -> i mod blocks = b) all in
  let over f = batch_spread (Array.init (Int.min blocks n) (fun b -> f (block b))) in
  let scaled f i = f samples.(i) *. samples.(i).host in
  let p q idx =
    Stats.percentile q (Array.of_list (List.map (scaled (fun s -> s.ms)) idx))
  in
  let rate idx =
    float_of_int (List.length idx)
    /. (List.fold_left (fun acc i -> acc +. scaled (fun s -> s.held_ms) i) 0. idx
       /. 1000.)
  in
  let peak idx = List.fold_left (fun m i -> Int.max m samples.(i).rss_kb) 0 idx in
  let listed = List.filter (fun s -> s.index < op_list) (Array.to_list samples) in
  let cuts =
    List.filter_map
      (fun s -> match s.cut with Ok c -> Some (float_of_int c) | Error _ -> None)
      listed
  in
  let balanced = List.length (List.filter (fun s -> s.balanced) listed) in
  let rss_kb, rss_spread =
    match daemon_rss_kb with
    | Some kb -> (kb, 0.)
    | None -> (peak all, over (fun b -> float_of_int (peak b)))
  in
  [
    metric "op_ms.p50" (p 50. all) "ms" (over (p 50.));
    metric "op_ms.p90" (p 90. all) "ms" (over (p 90.));
    metric "ops_per_s" (rate all) "1/s" (over rate);
    metric "cut.mean" (Stats.mean (Array.of_list cuts)) "cut" 0.;
    metric "balanced_pct"
      (100. *. float_of_int balanced /. float_of_int (List.length listed))
      "%" 0.;
    metric "peak_rss_mb" (float_of_int rss_kb /. 1024.) "MB" rss_spread;
    metric "setup_s" (Stats.median setup_s) "s" (batch_spread setup_s);
  ]

(* ---- set-up ---- *)

let setups = 9

(* Run [f] [setups] times, keeping the last result and every duration in
   seconds, scaled to the nominal host. *)
let repeat_setup f =
  let durations = Array.make setups 0. in
  let last = ref None in
  let before = ref (Host.reference_ms ()) in
  for i = 0 to setups - 1 do
    let t0 = Proc.now_ms () in
    last := Some (f ~last:(i = setups - 1));
    let ms = Proc.now_ms () -. t0 in
    let after = Host.reference_ms () in
    durations.(i) <- ms *. Host.factor ~before:!before ~after /. 1000.;
    before := after
  done;
  (Option.get !last, durations)

(* Generate circuits with [mlpart generate] and parse them for the
   checks: (circuit, (file, netlist text, hypergraph)). *)
let generate_inputs env circuits =
  List.map
    (fun (circuit, gen_seed) ->
      let file = env.work // Printf.sprintf "%s-%d.hgr" circuit gen_seed in
      let err = env.work // "gen.err" in
      let r =
        Proc.run mlpart
          [ "generate"; circuit; "--seed"; string_of_int gen_seed; "-o"; file ]
          ~stdout:(env.work // "gen.out") ~stderr:err
      in
      if r.Proc.code <> 0 then
        failwith
          (Printf.sprintf "mlpart generate %s exited %d: %s" circuit r.Proc.code
             (first_line (read err)));
      let text = read file in
      (circuit, (file, text, parse_hgr ~name:circuit text)))
    circuits
