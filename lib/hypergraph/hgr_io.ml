module Diag = Mlpart_util.Diag

type mode = Strict | Lenient
type parsed = { hypergraph : Hypergraph.t; warnings : Diag.t list }

(* Unrecoverable parse state (malformed header): no sensible recovery
   exists in either mode, so the single pass bails out through here. *)
exception Fatal of Diag.t

type tokens = {
  mutable line : int;
  mutable toks : string list;
  input : unit -> string option;
}

let make_tokens input = { line = 0; toks = []; input }

let rec next_line ts =
  match ts.input () with
  | None -> false
  | Some raw ->
      ts.line <- ts.line + 1;
      let raw = String.trim raw in
      if raw = "" || raw.[0] = '%' then next_line ts
      else begin
        ts.toks <-
          String.split_on_char ' ' raw |> List.filter (fun s -> s <> "");
        true
      end

(* One pass for both modes.  Every anomaly is recorded through [record]
   with mode-dependent severity (Strict -> Error, Lenient -> Warning) and
   then repaired locally so parsing can continue; at the end the presence
   of any Error decides Ok vs Error.  This way strict mode reports every
   problem in the file, not just the first. *)
let parse ~name ~mode input =
  let source = if name = "" then "<hgr>" else name in
  let diags = ref [] in
  let severity = match mode with Strict -> Diag.Error | Lenient -> Diag.Warning in
  let record ~line code fmt =
    Printf.ksprintf
      (fun message ->
        diags := { Diag.source; line; code; severity; message } :: !diags)
      fmt
  in
  let fatal ~line code fmt =
    Printf.ksprintf
      (fun message ->
        raise (Fatal { Diag.source; line; code; severity = Diag.Error; message }))
      fmt
  in
  let ts = make_tokens input in
  try
    let header_ints () =
      if not (next_line ts) then
        fatal ~line:ts.line Diag.Bad_header "empty input, expected header";
      List.map
        (fun s ->
          match int_of_string_opt s with
          | Some v -> v
          | None ->
              fatal ~line:ts.line Diag.Bad_header "expected integer, got %S" s)
        ts.toks
    in
    let num_nets, num_modules, fmt =
      match header_ints () with
      | [ e; n ] -> (e, n, 0)
      | [ e; n; fmt ] -> (e, n, fmt)
      | _ -> fatal ~line:ts.line Diag.Bad_header "expected '<nets> <modules> [fmt]'"
    in
    if num_nets < 0 || num_modules <= 0 then
      fatal ~line:ts.line Diag.Bad_header "non-positive sizes in header";
    if not (List.mem fmt [ 0; 1; 10; 11 ]) then
      fatal ~line:ts.line Diag.Bad_header "unsupported fmt %d" fmt;
    let has_net_weights = fmt = 1 || fmt = 11 in
    let has_mod_weights = fmt = 10 || fmt = 11 in
    let nets = ref [] in
    (try
       for e = 0 to num_nets - 1 do
         if not (next_line ts) then begin
           record ~line:ts.line Diag.Truncated
             "input ended at net %d of %d declared" e num_nets;
           raise Exit
         end;
         let ints =
           List.filter_map
             (fun s ->
               match int_of_string_opt s with
               | Some v -> Some v
               | None ->
                   record ~line:ts.line Diag.Bad_token
                     "net %d: expected integer, got %S (token dropped)" e s;
                   None)
             ts.toks
         in
         let weight, pins =
           if has_net_weights then
             match ints with
             | w :: rest -> (w, rest)
             | [] ->
                 record ~line:ts.line Diag.Empty_net "net %d has no content" e;
                 (1, [])
           else (1, ints)
         in
         let weight =
           if weight <= 0 then begin
             record ~line:ts.line Diag.Bad_weight
               "net %d has weight %d (clamped to 1)" e weight;
             1
           end
           else weight
         in
         let pins =
           List.filter_map
             (fun p ->
               if p < 1 || p > num_modules then begin
                 record ~line:ts.line Diag.Pin_out_of_range
                   "net %d: pin %d outside 1..%d (dropped)" e p num_modules;
                 None
               end
               else Some (p - 1))
             pins
         in
         let distinct = List.sort_uniq Int.compare pins in
         if List.length distinct < List.length pins then
           record ~line:ts.line Diag.Duplicate_pin
             "net %d: %d duplicate pin(s) collapsed" e
             (List.length pins - List.length distinct);
         (* A net that projects to fewer than two distinct pins is dropped;
            recording it (with the original net index) keeps the mapping
            between source file and in-memory net ids auditable. *)
         if List.length distinct >= 2 then
           nets := (Array.of_list distinct, weight) :: !nets
         else
           record ~line:ts.line Diag.Singleton_net
             "net %d has %d distinct pin(s); dropped" e (List.length distinct)
       done
     with Exit -> ());
    let areas = Array.make num_modules 1 in
    if has_mod_weights then begin
      try
        for v = 0 to num_modules - 1 do
          if not (next_line ts) then begin
            record ~line:ts.line Diag.Truncated
              "input ended at module weight %d of %d declared" v num_modules;
            raise Exit
          end;
          match ts.toks with
          | [ a ] -> (
              match int_of_string_opt a with
              | Some a when a > 0 -> areas.(v) <- a
              | Some a ->
                  record ~line:ts.line Diag.Bad_area
                    "module %d has area %d (clamped to 1)" v a
              | None ->
                  record ~line:ts.line Diag.Bad_token
                    "module %d: expected integer area, got %S" v a)
          | _ ->
              record ~line:ts.line Diag.Bad_token
                "expected one module weight, got %d tokens"
                (List.length ts.toks)
        done
      with Exit -> ()
    end;
    let diags = List.rev !diags in
    if List.exists (fun d -> d.Diag.severity = Diag.Error) diags then Error diags
    else begin
      let hypergraph =
        Hypergraph.make ~name ~areas ~nets:(Array.of_list (List.rev !nets)) ()
      in
      (* Lenient ingestion double-checks the engine invariants; the local
         repairs above should leave nothing for [Hypergraph.repair] to do,
         but a repair pass is cheap insurance against future parser drift. *)
      match mode with
      | Strict -> Ok { hypergraph; warnings = diags }
      | Lenient -> (
          match Hypergraph.validate hypergraph with
          | Ok () -> Ok { hypergraph; warnings = diags }
          | Error _ ->
              let hypergraph, report = Hypergraph.repair hypergraph in
              Ok { hypergraph; warnings = diags @ report.Hypergraph.repair_diags })
    end
  with Fatal d -> Error (List.rev (d :: !diags))

let parse_string ?(name = "") ~mode s =
  let remaining = ref (String.split_on_char '\n' s) in
  let input () =
    match !remaining with
    | [] -> None
    | x :: rest ->
        remaining := rest;
        Some x
  in
  parse ~name ~mode input

let parse_file ~mode path =
  let name = Filename.remove_extension (Filename.basename path) in
  match
    In_channel.with_open_text path (fun ic ->
        parse ~name ~mode (fun () -> In_channel.input_line ic))
  with
  | result -> result
  | exception Sys_error msg ->
      Error [ Diag.of_sys_error ~source:path msg ]

(* Legacy strict entry points: raise the typed boundary exception instead
   of returning a result. *)
let ok_or_raise = function
  | Ok { hypergraph; warnings = _ } -> hypergraph
  | Error diags -> raise (Diag.Mlpart_error diags)

let of_string ?(name = "") s = ok_or_raise (parse_string ~name ~mode:Strict s)
let read_file path = ok_or_raise (parse_file ~mode:Strict path)

let to_string h =
  let n = Hypergraph.num_modules h in
  let m = Hypergraph.num_nets h in
  let exists_upto limit pred =
    let rec check i = i < limit && (pred i || check (i + 1)) in
    check 0
  in
  let net_weighted = exists_upto m (fun e -> Hypergraph.net_weight h e <> 1) in
  let mod_weighted = exists_upto n (fun v -> Hypergraph.area h v <> 1) in
  let fmt =
    match (net_weighted, mod_weighted) with
    | false, false -> ""
    | true, false -> " 1"
    | false, true -> " 10"
    | true, true -> " 11"
  in
  let buf = Buffer.create (16 * (m + n)) in
  Buffer.add_string buf (Printf.sprintf "%d %d%s\n" m n fmt);
  for e = 0 to m - 1 do
    let first = ref true in
    if net_weighted then begin
      Buffer.add_string buf (string_of_int (Hypergraph.net_weight h e));
      first := false
    end;
    Hypergraph.iter_pins_of h e (fun v ->
        if not !first then Buffer.add_char buf ' ';
        first := false;
        Buffer.add_string buf (string_of_int (v + 1)));
    Buffer.add_char buf '\n'
  done;
  if mod_weighted then
    for v = 0 to n - 1 do
      Buffer.add_string buf (string_of_int (Hypergraph.area h v));
      Buffer.add_char buf '\n'
    done;
  Buffer.contents buf

let write_channel oc h = Out_channel.output_string oc (to_string h)
let write_file path h = Out_channel.with_open_text path (fun oc -> write_channel oc h)
