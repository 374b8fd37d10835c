(* benchv2 — end-to-end and per-layer benchmark of mlpart.

   Usage (from the repository root; benchv2/run.sh builds and runs it):
     main.exe run --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
                  [--out FILE]
     main.exe compare OLD.json NEW.json

   [run] times only what a user can run: the mlpart binary and the serve
   socket.  With --trace 1 it reruns the workload with the program's own
   --trace/--metrics exports and derives per-layer numbers from them.  The
   last line of its output is a JSON summary; see README.md.  --out adds
   the run's records to FILE, so that repeated runs collect in one file
   for [compare].  Both commands read the metric declarations from
   BENCHMARK.json in the working directory. *)

open Benchv2
open Harness

let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("benchv2: " ^ m);
      exit 2)
    fmt

let benchmark = "BENCHMARK.json"

let print_table ~trace title (values : Record.metric list) =
  print_endline title;
  List.iter
    (fun (m : Record.metric) ->
      Printf.printf "  %-30s %14.4f %-6s%s\n" m.Record.name m.Record.value
        m.Record.unit_
        (if trace then "" else Printf.sprintf "  spread %.4f" m.Record.spread))
    values

(* Run one workload in a scratch directory of its own and report the
   metrics BENCHMARK.json declares for the mode, in its order. *)
let run_workload (spec : Record.spec) ~spawner ~seed ~seconds ~trace w =
  let work = "_benchv2" // Printf.sprintf "%s-%d" (Workload.name w) (Unix.getpid ()) in
  if not (Sys.file_exists "_benchv2") then Sys.mkdir "_benchv2" 0o755;
  Sys.mkdir work 0o755;
  let env = { work; seed; seconds; spawner } in
  let per_layer (samples, values) =
    (samples, List.map (fun (n, v) -> metric n v "" 0.) values)
  in
  let samples, values =
    Fun.protect
      ~finally:(fun () -> rm_rf work)
      (fun () ->
        match (w, trace) with
        | Workload.Serve_mix, false -> Serve_load.run env
        | Workload.Serve_mix, true -> per_layer (Serve_load.traced env)
        | _, false -> Cli_load.run env w
        | _, true -> per_layer (Cli_load.traced env w))
  in
  let ops = List.length samples in
  let metrics =
    List.map
      (fun (d : Record.declared) ->
        match
          List.find_opt (fun (m : Record.metric) -> m.Record.name = d.Record.metric) values
        with
        | Some m -> { m with Record.unit_ = d.Record.unit_of }
        (* a layer this workload does not run *)
        | None when trace -> metric d.Record.metric 0. d.Record.unit_of 0.
        | None -> failwith ("no measurement for declared metric " ^ d.Record.metric))
      (if trace then spec.Record.per_layer else spec.Record.end_to_end)
  in
  let failures =
    List.filter_map (fun s -> match s.cut with Error e -> Some e | Ok _ -> None) samples
  in
  List.iteri
    (fun i e -> if i < 5 then prerr_endline ("benchv2: check failed: " ^ e))
    failures;
  let record =
    {
      Record.workload = Workload.name w;
      meta =
        {
          Record.host = Unix.gethostname ();
          nproc = Domain.recommended_domain_count ();
          jobs = 1;
          seed;
          seconds = int_of_float seconds;
          trace;
          op_list = Workload.op_list w;
          ops;
        };
      attempted = ops;
      failed = List.length failures;
      metrics;
    }
  in
  print_table ~trace
    (Printf.sprintf "%s  seed %d  %d ops  %d failed  (%s)" record.Record.workload
       seed ops record.Record.failed
       (if trace then "per-layer, per op" else "end to end"))
    metrics;
  record

let run args =
  let workload = ref None and seed = ref 1 and seconds = ref 25. in
  let trace = ref false and out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := v = "1"; parse rest
    | "--out" :: v :: rest -> out := Some v; parse rest
    | a :: _ -> usage_error "run: unexpected argument %S" a
  in
  (try parse args with Failure _ -> usage_error "run: bad numeric argument");
  if not (Sys.file_exists mlpart) then
    usage_error "%s not built; use benchv2/run.sh" mlpart;
  let spec = Record.load_spec benchmark in
  let workloads =
    match !workload with
    | Some "all" -> Workload.all
    | Some name -> (
        match Workload.of_name name with
        | Some w -> [ w ]
        | None ->
            usage_error "unknown workload %S (known: %s, all)" name
              (String.concat ", " (List.map Workload.name Workload.all)))
    | None -> usage_error "run: --workload is required"
  in
  let spawner = Spawner.start () in
  let records =
    Fun.protect
      ~finally:(fun () -> Spawner.stop spawner)
      (fun () ->
        List.map
          (run_workload spec ~spawner ~seed:!seed ~seconds:!seconds ~trace:!trace)
          workloads)
  in
  Option.iter
    (fun path ->
      let earlier = if Sys.file_exists path then Record.load path else [] in
      Record.save path (earlier @ records))
    !out;
  List.iter (fun r -> print_endline (Record.summary_line r)) records;
  if not (List.for_all Record.correct records) then exit 1

let compare = function
  | [ old_file; new_file ] -> (
      let spec = Record.load_spec benchmark in
      match
        Verdict.table spec ~old_runs:(Record.load old_file)
          ~new_runs:(Record.load new_file)
      with
      | Error why ->
          prerr_endline ("benchv2: refusing to compare: " ^ why);
          exit 2
      | Ok rows ->
          Printf.printf "%-10s %-14s %14s %14s %9s  %s\n" "workload" "metric" "old"
            "new" "change" "verdict";
          List.iter
            (fun (r : Verdict.row) ->
              Printf.printf "%-10s %-14s %14.4f %14.4f %+8.2f%%  %s\n"
                r.Verdict.workload r.Verdict.metric r.Verdict.was r.Verdict.now
                (100. *. Verdict.change ~was:r.Verdict.was ~now:r.Verdict.now)
                (Verdict.to_string r.Verdict.verdict))
            rows;
          if List.exists (fun (r : Verdict.row) -> r.Verdict.verdict = Verdict.Worse) rows
          then exit 1)
  | _ -> usage_error "usage: compare OLD.json NEW.json"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run args
  | "compare" :: args -> compare args
  | _ -> usage_error "usage: main.exe run|compare ... (see README.md)"
