(* The four workloads: what one op is, and the deterministic op list each
   derives from the workload seed.  The program under test only ever sees
   generated files and per-op seeds. *)

type t = Ml2_small | Ml2_large | Kway | Serve_mix

let all = [ Ml2_small; Ml2_large; Kway; Serve_mix ]

let name = function
  | Ml2_small -> "ml2-small"
  | Ml2_large -> "ml2-large"
  | Kway -> "kway"
  | Serve_mix -> "serve-mix"

let of_name s = List.find_opt (fun w -> name w = s) all

(* The Small-tier circuits, 801 to 3014 modules. *)
let small =
  [ "balu"; "bm1"; "primary1"; "test04"; "test03"; "test02"; "test06";
    "struct"; "test05"; "19ks"; "primary2" ]

(* Designs repeated by serve path requests (cache hits), and the circuit
   whose variants carry the never-seen inline netlists (cache misses). *)
let serve_designs = [| "balu"; "primary1"; "primary2"; "test05" |]
let miss_bases = 4

(* Generator seed of the circuits.  Like the paper's suite, the circuits
   are fixed and the workload seed varies only the per-op partitioning
   seeds: a generator seed that followed the workload seed made cut.mean
   differ by 3-8% between seeds, more than a quality bound should allow. *)
let circuit_seed = 1

(* Circuits generated in set-up; serve's miss bases are [primary1]
   instances under the next generator seeds. *)
let circuits = function
  | Ml2_small -> small
  | Ml2_large -> [ "industry2" ]
  | Kway -> [ "primary2" ]
  | Serve_mix -> Array.to_list serve_designs

(* Ops whose cuts make up cut.mean: every run completes at least this
   prefix of the op list (10-20 s here), and a CLI run cycles through it.
   Long lists keep the mean cut, and the mix of per-seed run times, from
   depending on a few seeds. *)
let op_list = function
  | Ml2_small -> 16 * List.length small
  | Ml2_large -> 40
  | Kway -> 250
  | Serve_mix -> 256

(* Per-op partition seed, a pure function of (workload seed, op index). *)
let op_seed ~seed i =
  Mlpart_util.Rng.(int (stream (create seed) i) 0x3FFFFFFF)

(* Whether an answer outside the balance bounds fails the op.  Ml keeps
   every 2-way answer within [Bipartition.bounds].  Nlevel does not
   enforce [Kpartition.bounds]: its coarse rebalancing only drains
   overfull parts, and only while a cluster fits elsewhere.  On kway such
   answers are counted in balanced_pct instead. *)
let enforces_balance = function
  | Kway -> false
  | Ml2_small | Ml2_large | Serve_mix -> true

(* Parts of a kway op.  On primary2, nlevel leaves about one op in 200
   outside the bounds at k = 4 (areas 793/678/864/679 against [678, 832])
   and most ops at k = 8; at k = 3, one in 12,000 (60 workload seeds of
   200 ops), so balanced_pct reads 100 on nearly every run. *)
let kway_k = 3

type cli_op = { circuit : string; k : int; op_seed : int }

let cli_op w ~seed i =
  let i = i mod op_list w in
  let circuit, k =
    match w with
    | Ml2_small -> (List.nth small (i mod List.length small), 2)
    | Ml2_large -> ("industry2", 2)
    | Kway -> ("primary2", kway_k)
    | Serve_mix -> invalid_arg "Workload.cli_op: serve-mix"
  in
  { circuit; k; op_seed = op_seed ~seed i }

let cli_args op ~file ~parts =
  (if op.k = 2 then [ "bipartition"; file ]
   else [ "kpartition"; file; "-k"; string_of_int op.k ])
  @ [ "--seed"; string_of_int op.op_seed; "-o"; parts ]

(* Serve ops: three in four are path requests that cycle over
   [serve_designs]; every fourth carries a netlist the daemon has never
   seen.  Miss ids 0..3 are spent by the warm-up, so op [i] uses miss id
   [4 + i / 4]. *)
type serve_src = Design of int | Miss of int

let serve_src i =
  if i mod 4 = 3 then Miss (miss_bases + (i / 4))
  else Design ((i - (i / 4)) mod Array.length serve_designs)

(* Miss netlist [j]: base [j mod miss_bases] with one extra two-pin net
   prepended, so its content fingerprint is new while its size stays that
   of the base.  The extra nets {u, u+1+m/n} are distinct for every
   m = j / miss_bases below n·⌊(n-1)/2⌋ (n = modules), far more misses
   than one run sends. *)
let miss_text ~base j =
  let nl = String.index base '\n' in
  let header =
    String.split_on_char ' ' (String.sub base 0 nl) |> List.filter (( <> ) "")
  in
  let nets, modules, fmt =
    match header with
    | [ e; v ] -> (int_of_string e, int_of_string v, None)
    | [ e; v; f ] -> (int_of_string e, int_of_string v, Some f)
    | _ -> invalid_arg "Workload.miss_text: bad .hgr header"
  in
  let m = j / miss_bases in
  let u = m mod modules in
  let v = (u + 1 + (m / modules)) mod modules in
  let weighted = match fmt with Some ("1" | "11") -> true | _ -> false in
  Printf.sprintf "%d %d%s\n%s%d %d\n%s" (nets + 1) modules
    (match fmt with Some f -> " " ^ f | None -> "")
    (if weighted then "1 " else "")
    (u + 1) (v + 1)
    (String.sub base (nl + 1) (String.length base - nl - 1))

let serve_request ~seed ~src i =
  Mlpart_serve.Protocol.request_to_line
    {
      Mlpart_serve.Protocol.id = string_of_int i;
      client = "bench";
      src;
      seed = op_seed ~seed i;
      starts = 1;
      tolerance = Verify.tolerance;
      timeout_ms = None;
      return_side = true;
    }
