(* The result of one [run] of one workload, as written by [run --out] and
   read back by [compare], and the metric declarations in BENCHMARK.json. *)

module Json = Mlpart_obs.Json

type metric = {
  name : string;
  value : float;
  unit_ : string;
  spread : float;
      (** estimated interquartile range of [value] as a share of its median,
          from the run's blocks (see [Harness.end_to_end]); 0 for values
          that are deterministic for a seed *)
}

type meta = {
  host : string;
  nproc : int;
  jobs : int;
  seed : int;
  seconds : int;
  trace : bool;
  op_list : int;
  ops : int;  (** ops completed; varies with speed, so never compared *)
}

type t = {
  workload : string;
  meta : meta;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let correct r = r.failed = 0

let meta_json m =
  Json.Obj
    [
      ("host", Json.Str m.host);
      ("nproc", Json.Int m.nproc);
      ("jobs", Json.Int m.jobs);
      ("seed", Json.Int m.seed);
      ("seconds", Json.Int m.seconds);
      ("trace", Json.Bool m.trace);
      ("op_list", Json.Int m.op_list);
      ("ops", Json.Int m.ops);
    ]

let metrics_json ?(spread = true) metrics =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj
             ([ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]
             @ if spread then [ ("spread", Json.Float m.spread) ] else []) ))
       metrics)

let to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("meta", meta_json r.meta);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", metrics_json r.metrics);
    ]

(* The one-line summary a run prints last. *)
let summary_line r =
  Json.to_string ~indent:false
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ("metrics", metrics_json ~spread:false r.metrics);
       ])

let field what = function
  | Some v -> v
  | None -> failwith (Printf.sprintf "result file: missing or bad %s" what)

let of_json j =
  let meta = field "meta" (Json.member "meta" j) in
  let int k = field k (Json.int_member k meta) in
  {
    workload = field "workload" (Json.str_member "workload" j);
    meta =
      {
        host = field "host" (Json.str_member "host" meta);
        nproc = int "nproc";
        jobs = int "jobs";
        seed = int "seed";
        seconds = int "seconds";
        trace = field "trace" (Json.bool_member "trace" meta);
        op_list = int "op_list";
        ops = int "ops";
      };
    attempted = field "attempted" (Json.int_member "attempted" j);
    failed = field "failed" (Json.int_member "failed" j);
    metrics =
      (match Json.member "metrics" j with
      | Some (Json.Obj fields) ->
          List.map
            (fun (name, m) ->
              {
                name;
                value = field name (Json.float_member "value" m);
                unit_ = field name (Json.str_member "unit" m);
                spread = Option.value (Json.float_member "spread" m) ~default:0.;
              })
            fields
      | _ -> field "metrics" None);
  }

(* A result file holds one record or a list of them. *)
let load path =
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Ok (Json.List l) -> List.map of_json l
  | Ok j -> [ of_json j ]

let save path records =
  Json.to_file path
    (match records with [ r ] -> to_json r | l -> Json.List (List.map to_json l))

(* ---- BENCHMARK.json ---- *)

type declared = {
  metric : string;
  unit_of : string;
  higher_is_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type spec = { end_to_end : declared list; per_layer : declared list }

let load_spec path =
  let j =
    match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  in
  let declared key =
    List.map
      (fun m ->
        {
          metric = field "metric name" (Json.str_member "name" m);
          unit_of = field "metric unit" (Json.str_member "unit" m);
          higher_is_better = Json.str_member "better" m = Some "higher";
          bound = Json.float_member "bound" m;
        })
      (field key (Json.list_member key j))
  in
  { end_to_end = declared "end_to_end"; per_layer = declared "per_layer" }
