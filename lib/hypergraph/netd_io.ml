module Diag = Mlpart_util.Diag

type mode = Hgr_io.mode = Strict | Lenient
type parsed = Hgr_io.parsed = { hypergraph : Hypergraph.t; warnings : Diag.t list }

exception Fatal of Diag.t

(* Diagnostic context shared by one parse: [record] takes the severity
   from the mode (Strict -> Error, Lenient -> Warning), [warn] is always a
   warning — used for normalisations the .netD pin-list format genuinely
   permits (duplicate pins, single-pin nets), which must not fail strict
   parses of real benchmark files. *)
type ctx = {
  source : string;
  severity : Diag.severity;
  mutable diags : Diag.t list;
}

let record ctx ~line code fmt =
  Printf.ksprintf
    (fun message ->
      ctx.diags <-
        { Diag.source = ctx.source; line; code; severity = ctx.severity; message }
        :: ctx.diags)
    fmt

let warn ctx ~line code fmt =
  Printf.ksprintf
    (fun message ->
      ctx.diags <-
        { Diag.source = ctx.source; line; code; severity = Diag.Warning; message }
        :: ctx.diags)
    fmt

let fatal ctx ~line code fmt =
  Printf.ksprintf
    (fun message ->
      raise
        (Fatal
           { Diag.source = ctx.source; line; code; severity = Diag.Error; message }))
    fmt

(* Module ids: cells aN map to N, pads pN map to pad_offset + N.  The
   header's pad offset separates the two namespaces.  Returns [None] when
   the pin cannot be mapped (recorded in [ctx]). *)
let module_id ctx ~pad_offset ~num_modules ~line name =
  let bad code fmt = record ctx ~line code fmt in
  if String.length name < 2 then begin
    bad Diag.Bad_module_name "bad module name %S" name;
    None
  end
  else
    match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
    | None ->
        bad Diag.Bad_module_name "bad module name %S" name;
        None
    | Some number -> (
        let checked id =
          if id < 0 || id >= num_modules then begin
            bad Diag.Pin_out_of_range
              "module %S maps to id %d outside declared count %d" name id
              num_modules;
            None
          end
          else Some id
        in
        match name.[0] with
        | 'a' ->
            if number < 0 || number > pad_offset then begin
              bad Diag.Pad_offset "cell %S outside pad offset %d" name pad_offset;
              (* the id itself may still be usable; keep it when in range *)
              checked number
            end
            else checked number
        | 'p' ->
            if number < 1 then begin
              bad Diag.Pad_offset "bad pad index in %S" name;
              None
            end
            else checked (pad_offset + number)
        | _ ->
            bad Diag.Bad_module_name "module name %S must start with 'a' or 'p'"
              name;
            None)

type raw = {
  num_modules : int;
  pad_offset : int;
  raw_nets : int list list; (* pins per net, reversed order *)
}

let tokenize contents =
  String.split_on_char '\n' contents
  |> List.mapi (fun i raw ->
         ( i + 1,
           String.split_on_char ' ' (String.trim raw)
           |> List.filter (fun s -> s <> "") ))
  |> List.filter (fun (_, toks) -> toks <> [])

(* The shared pin-line scanner.  [check_counts] is off for the [pads]
   helper, which re-parses fragments. *)
let parse_net_raw ?(check_counts = true) ctx contents =
  match tokenize contents with
  | (l0, [ zero ]) :: (l1, [ pins ]) :: (l2, [ nets ]) :: (l3, [ modules ])
    :: (l4, [ pad_offset ]) :: pin_lines ->
      if zero <> "0" then record ctx ~line:l0 Diag.Bad_header "expected leading 0";
      let int_at l s =
        match int_of_string_opt s with
        | Some v -> v
        | None -> fatal ctx ~line:l Diag.Bad_header "expected integer, got %S" s
      in
      let num_pins = int_at l1 pins in
      let num_nets = int_at l2 nets in
      let num_modules = int_at l3 modules in
      let pad_offset = int_at l4 pad_offset in
      if num_modules <= 0 then
        fatal ctx ~line:l3 Diag.Bad_header "non-positive module count";
      let current = ref [] in
      let started = ref false in
      let nets = ref [] in
      let pin_count = ref 0 in
      let flush () = if !started then nets := !current :: !nets in
      List.iter
        (fun (line, toks) ->
          match toks with
          | name :: kind :: _rest -> (
              incr pin_count;
              let id = module_id ctx ~pad_offset ~num_modules ~line name in
              match kind with
              | "s" ->
                  flush ();
                  started := true;
                  current := (match id with Some id -> [ id ] | None -> [])
              | "l" ->
                  if not !started then begin
                    record ctx ~line Diag.Bad_token
                      "continuation before any 's' pin (treated as net start)";
                    started := true;
                    current := []
                  end;
                  (match id with
                  | Some id -> current := id :: !current
                  | None -> ())
              | other ->
                  record ctx ~line Diag.Bad_token
                    "expected pin kind 's' or 'l', got %S (line skipped)" other)
          | _ ->
              record ctx ~line Diag.Bad_token
                "expected '<module> <s|l> [dir]' (line skipped)")
        pin_lines;
      flush ();
      if check_counts && !pin_count <> num_pins then
        record ctx ~line:l1 Diag.Count_mismatch
          "header declares %d pins, found %d" num_pins !pin_count;
      if check_counts && List.length !nets <> num_nets then
        record ctx ~line:l2 Diag.Count_mismatch
          "header declares %d nets, found %d" num_nets (List.length !nets);
      { num_modules; pad_offset; raw_nets = !nets }
  | [] -> fatal ctx ~line:0 Diag.Truncated "empty input (need 5 header lines)"
  | l ->
      let last = List.fold_left (fun _ (line, _) -> line) 0 l in
      fatal ctx ~line:last Diag.Truncated
        "missing or malformed header (need 5 single-token header lines)"

let parse_are ctx ~pad_offset ~num_modules contents areas =
  List.iter
    (fun (line, toks) ->
      match toks with
      | [ name; area ] -> (
          match int_of_string_opt area with
          | Some a when a > 0 -> (
              match module_id ctx ~pad_offset ~num_modules ~line name with
              | Some id -> areas.(id) <- a
              | None -> () (* already recorded *))
          | Some a ->
              record ctx ~line Diag.Bad_area "area %d for %S (row ignored)" a name
          | None ->
              record ctx ~line Diag.Bad_area "bad area %S for %S (row ignored)"
                area name)
      | _ -> record ctx ~line Diag.Bad_token "expected '<module> <area>'")
    (tokenize contents)

let parse_net_string ?(name = "") ?are ~mode contents =
  let ctx =
    {
      source = (if name = "" then "<netD>" else name);
      severity = (match mode with Strict -> Diag.Error | Lenient -> Diag.Warning);
      diags = [];
    }
  in
  try
    let raw = parse_net_raw ctx contents in
    let areas = Array.make raw.num_modules 1 in
    (match are with
    | None -> ()
    | Some are_contents ->
        parse_are ctx ~pad_offset:raw.pad_offset ~num_modules:raw.num_modules
          are_contents areas);
    let nets = ref [] in
    let total = List.length raw.raw_nets in
    List.iteri
      (fun i pins ->
        (* raw_nets is reversed: recover the original net index for diags *)
        let e = total - 1 - i in
        let distinct = List.sort_uniq Int.compare pins in
        let d = List.length distinct in
        if d < List.length pins then
          warn ctx ~line:0 Diag.Duplicate_pin
            "net %d: %d duplicate pin(s) collapsed" e (List.length pins - d);
        if d >= 2 then nets := (Array.of_list distinct, 1) :: !nets
        else
          warn ctx ~line:0
            (if d = 0 then Diag.Empty_net else Diag.Singleton_net)
            "net %d has %d distinct pin(s); dropped" e d)
      raw.raw_nets;
    (* raw_nets reversed + prepending re-reverses: [!nets] is in file order *)
    let diags = List.rev ctx.diags in
    if List.exists (fun d -> d.Diag.severity = Diag.Error) diags then Error diags
    else begin
      let hypergraph =
        Hypergraph.make ~name ~areas ~nets:(Array.of_list !nets) ()
      in
      match mode with
      | Strict -> Ok { hypergraph; warnings = diags }
      | Lenient -> (
          match Hypergraph.validate hypergraph with
          | Ok () -> Ok { hypergraph; warnings = diags }
          | Error _ ->
              let hypergraph, report = Hypergraph.repair hypergraph in
              Ok { hypergraph; warnings = diags @ report.Hypergraph.repair_diags })
    end
  with Fatal d -> Error (List.rev (d :: ctx.diags))

let parse_files ?are_path ~mode net_path =
  let name = Filename.remove_extension (Filename.basename net_path) in
  match
    let contents = In_channel.with_open_text net_path In_channel.input_all in
    let are =
      Option.map (fun p -> In_channel.with_open_text p In_channel.input_all)
        are_path
    in
    parse_net_string ~name ?are ~mode contents
  with
  | result -> result
  | exception Sys_error msg ->
      Error [ Diag.of_sys_error ~source:net_path msg ]

let parse_path ~mode path =
  if Filename.check_suffix path ".net" || Filename.check_suffix path ".netD"
  then
    let are = Filename.remove_extension path ^ ".are" in
    parse_files ?are_path:(if Sys.file_exists are then Some are else None) ~mode path
  else Hgr_io.parse_file ~mode path

let ok_or_raise = function
  | Ok { hypergraph; warnings = _ } -> hypergraph
  | Error diags -> raise (Diag.Mlpart_error diags)

let read_net_string ?(name = "") ?are contents =
  ok_or_raise (parse_net_string ~name ?are ~mode:Strict contents)

let read_files ?are_path net_path =
  ok_or_raise (parse_files ?are_path ~mode:Strict net_path)

let pads _h contents =
  let ctx = { source = "<netD>"; severity = Diag.Warning; diags = [] } in
  match parse_net_raw ~check_counts:false ctx contents with
  | raw ->
      List.concat_map
        (fun pins -> List.filter (fun id -> id > raw.pad_offset) pins)
        raw.raw_nets
      |> List.sort_uniq Int.compare
  | exception Fatal d -> raise (Diag.Mlpart_error [ d ])

let write_net_string h =
  let buf = Buffer.create (32 * Hypergraph.num_pins h) in
  Buffer.add_string buf "0\n";
  Buffer.add_string buf (string_of_int (Hypergraph.num_pins h));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (string_of_int (Hypergraph.num_nets h));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (string_of_int (Hypergraph.num_modules h));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (string_of_int (Hypergraph.num_modules h));
  Buffer.add_char buf '\n';
  for e = 0 to Hypergraph.num_nets h - 1 do
    let first = ref true in
    Hypergraph.iter_pins_of h e (fun v ->
        Buffer.add_char buf 'a';
        Buffer.add_string buf (string_of_int v);
        Buffer.add_string buf (if !first then " s\n" else " l\n");
        first := false)
  done;
  Buffer.contents buf
