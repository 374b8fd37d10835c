(* Deterministic I/O fuzzing: SplitMix64-driven valid, truncated and
   byte-mutated [.hgr] / [.netD] documents thrown at both parse modes.

   The properties under test are totality — every input either parses
   ([Ok]) or yields typed diagnostics ([Error]), the parsers never raise,
   and in lenient mode every successfully parsed hypergraph additionally
   passes [Hypergraph.validate] — and, for [.hgr], agreement with the
   list-based reference reader in [Hgr_reference].  The case count is
   overridable through the MLPART_FUZZ_CASES environment variable (CI runs
   a larger budget). *)

module H = Mlpart_hypergraph.Hypergraph
module Hgr_io = Mlpart_hypergraph.Hgr_io
module Netd_io = Mlpart_hypergraph.Netd_io
module Diag = Mlpart_util.Diag
module Rng = Mlpart_util.Rng

let cases =
  match Sys.getenv_opt "MLPART_FUZZ_CASES" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 400)
  | None -> 400

(* ---- generators ---- *)

(* A random hypergraph whose every net has >= 2 distinct pins: the valid
   baseline that both formats can render and re-read. *)
let random_hypergraph rng =
  let modules = 2 + Rng.int rng 12 in
  let num_nets = Rng.int rng 10 in
  let areas = Array.init modules (fun _ -> 1 + Rng.int rng 8) in
  let nets =
    Array.init num_nets (fun _ ->
        let degree = 2 + Rng.int rng (Stdlib.min 4 (modules - 1)) in
        let perm = Rng.permutation rng modules in
        let pins = Array.sub perm 0 degree in
        (* both parsers normalise pins to sorted order (as the original
           reader did), so generate them sorted to make round-trips exact *)
        Array.sort Int.compare pins;
        (pins, 1 + Rng.int rng 5))
  in
  H.make ~areas ~nets ()

let random_hgr_doc rng = Hgr_io.to_string (random_hypergraph rng)
let random_netd_doc rng = Netd_io.write_net_string (random_hypergraph rng)

(* Structured junk tokens a mutation may splice in: the interesting
   neighbourhood of both grammars. *)
let junk = [| "0"; "-1"; "999999"; "a0"; "p1"; "s"; "l"; "%"; "x"; "1 2 3"; "" |]

let mutate rng s =
  let n = String.length s in
  match Rng.int rng 5 with
  | 0 ->
      (* truncate at a random byte *)
      String.sub s 0 (Rng.int rng (n + 1))
  | 1 when n > 0 ->
      (* flip one byte to an arbitrary value *)
      let b = Bytes.of_string s in
      Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256));
      Bytes.to_string b
  | 2 ->
      (* splice a junk token at a random position *)
      let at = Rng.int rng (n + 1) in
      let tok = junk.(Rng.int rng (Array.length junk)) in
      String.sub s 0 at ^ tok ^ " " ^ String.sub s at (n - at)
  | 3 ->
      (* drop a random line *)
      let lines = String.split_on_char '\n' s in
      let count = List.length lines in
      if count <= 1 then s
      else begin
        let victim = Rng.int rng count in
        lines
        |> List.filteri (fun i _ -> i <> victim)
        |> String.concat "\n"
      end
  | _ ->
      (* duplicate a random line *)
      let lines = String.split_on_char '\n' s in
      let count = List.length lines in
      if count = 0 then s
      else begin
        let victim = Rng.int rng count in
        lines
        |> List.mapi (fun i l -> if i = victim then [ l; l ] else [ l ])
        |> List.concat
        |> String.concat "\n"
      end

(* ---- totality assertions ---- *)

let mode_name = function Hgr_io.Strict -> "strict" | Hgr_io.Lenient -> "lenient"

let assert_total ~what ~mode parse =
  match parse () with
  | Ok { Hgr_io.hypergraph; warnings } ->
      if mode = Hgr_io.Lenient then begin
        (match H.validate hypergraph with
        | Ok () -> ()
        | Error diags ->
            Alcotest.failf "%s (%s): lenient Ok fails validate: %s" what
              (mode_name mode)
              (String.concat "; " (List.map Diag.to_string diags)));
        List.iter
          (fun d ->
            if d.Diag.severity <> Diag.Warning then
              Alcotest.failf "%s (%s): non-warning in warnings: %s" what
                (mode_name mode) (Diag.to_string d))
          warnings
      end
  | Error [] -> Alcotest.failf "%s (%s): Error with no diagnostics" what (mode_name mode)
  | Error _ -> ()
  | exception e ->
      Alcotest.failf "%s (%s): raised %s" what (mode_name mode)
        (Printexc.to_string e)

let assert_total_netd ~what ~mode parse =
  match parse () with
  | Ok { Netd_io.hypergraph; warnings } ->
      if mode = Hgr_io.Lenient then begin
        (match H.validate hypergraph with
        | Ok () -> ()
        | Error diags ->
            Alcotest.failf "%s (%s): lenient Ok fails validate: %s" what
              (mode_name mode)
              (String.concat "; " (List.map Diag.to_string diags)));
        List.iter
          (fun d ->
            if d.Diag.severity <> Diag.Warning then
              Alcotest.failf "%s (%s): non-warning in warnings: %s" what
                (mode_name mode) (Diag.to_string d))
          warnings
      end
  | Error [] -> Alcotest.failf "%s (%s): Error with no diagnostics" what (mode_name mode)
  | Error _ -> ()
  | exception e ->
      Alcotest.failf "%s (%s): raised %s" what (mode_name mode)
        (Printexc.to_string e)

(* ---- fuzz drivers ---- *)

let test_fuzz_hgr () =
  let rng = Rng.create 0x46555A48 (* "FUZH" *) in
  for case = 1 to cases do
    let doc = random_hgr_doc rng in
    (* the unmutated document must parse strictly *)
    (match Hgr_io.parse_string ~mode:Hgr_io.Strict doc with
    | Ok _ -> ()
    | Error diags ->
        Alcotest.failf "case %d: valid doc rejected: %s" case
          (String.concat "; " (List.map Diag.to_string diags)));
    let mutated = mutate rng (mutate rng doc) in
    List.iter
      (fun mode ->
        assert_total
          ~what:(Printf.sprintf "hgr case %d %S" case mutated)
          ~mode
          (fun () -> Hgr_io.parse_string ~mode mutated))
      [ Hgr_io.Strict; Hgr_io.Lenient ]
  done

let test_fuzz_netd () =
  let rng = Rng.create 0x46555A4E (* "FUZN" *) in
  for case = 1 to cases do
    let doc = random_netd_doc rng in
    (match Netd_io.parse_net_string ~mode:Hgr_io.Strict doc with
    | Ok _ -> ()
    | Error diags ->
        Alcotest.failf "case %d: valid doc rejected: %s" case
          (String.concat "; " (List.map Diag.to_string diags)));
    let mutated = mutate rng (mutate rng doc) in
    (* random .are contents ride along half the time *)
    let are = if Rng.bool rng then Some (mutate rng "a0 3\na1 2\n") else None in
    List.iter
      (fun mode ->
        assert_total_netd
          ~what:(Printf.sprintf "netd case %d %S" case mutated)
          ~mode
          (fun () -> Netd_io.parse_net_string ?are ~mode mutated))
      [ Hgr_io.Strict; Hgr_io.Lenient ]
  done

(* ---- differential fuzz against the reference reader ---- *)

(* Tokens the scanner must read exactly as [int_of_string_opt] does: OCaml
   literal syntax, leading zeros, a negative zero, 18 and 20 digits, 19
   digits below and above [max_int], and whitespace other than ' ' inside
   a token. *)
let odd_tokens =
  [| "0x1f"; "+3"; "1_0"; "007"; "-0"; "999999999999999999";
     "1234567890123456789"; "9999999999999999999"; "12345678901234567890";
     "1\t2"; "\t"; "\012"; "2\0123" |]

(* A document in any fmt whose nets list pins in random order, with
   repeats, some longer than the insertion-sort cutoff, and with comment
   and blank lines here and there. *)
let differential_doc rng =
  let modules = 2 + Rng.int rng 40 in
  let nets = Rng.int rng 12 in
  let fmt = [| 0; 1; 10; 11 |].(Rng.int rng 4) in
  let buf = Buffer.create 256 in
  if Rng.int rng 4 = 0 then Buffer.add_string buf "% leading comment\n\n \t\n";
  Printf.bprintf buf "%d %d" nets modules;
  if fmt <> 0 || Rng.bool rng then Printf.bprintf buf " %d" fmt;
  Buffer.add_char buf '\n';
  for _ = 1 to nets do
    if Rng.int rng 8 = 0 then
      Buffer.add_string buf (if Rng.bool rng then "% between nets\n" else "   \n");
    if fmt = 1 || fmt = 11 then Printf.bprintf buf "%d " (1 + Rng.int rng 5);
    let size = if Rng.int rng 6 = 0 then 17 + Rng.int rng 24 else 2 + Rng.int rng 4 in
    for i = 1 to size do
      if i > 1 then Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int (1 + Rng.int rng modules))
    done;
    Buffer.add_char buf '\n'
  done;
  if fmt >= 10 then
    for _ = 1 to modules do
      Printf.bprintf buf "%d\n" (1 + Rng.int rng 9)
    done;
  Buffer.contents buf

(* CRLF line ends, odd tokens at random places, then the byte-level
   mutations of the totality fuzz. *)
let flavour rng doc =
  let doc =
    if Rng.int rng 4 = 0 then
      String.concat "\r\n" (String.split_on_char '\n' doc)
    else doc
  in
  let rec splice doc times =
    if times = 0 then doc
    else begin
      let at = Rng.int rng (String.length doc + 1) in
      let tok = odd_tokens.(Rng.int rng (Array.length odd_tokens)) in
      let sep = if Rng.bool rng then " " else "" in
      splice
        (String.sub doc 0 at ^ sep ^ tok ^ " "
        ^ String.sub doc at (String.length doc - at))
        (times - 1)
    end
  in
  let doc = splice doc (Rng.int rng 3) in
  let rec mutations doc times =
    if times = 0 then doc else mutations (mutate rng doc) (times - 1)
  in
  mutations doc (Rng.int rng 3)

(* Both readers allocate one area per declared module, so a case whose
   header declares more than [max_declared] of anything is skipped. *)
let max_declared = 100_000

let declares_too_much doc =
  let rec header = function
    | [] -> []
    | line :: rest ->
        let line = String.trim line in
        if line = "" || line.[0] = '%' then header rest
        else
          String.split_on_char ' ' line |> List.filter_map int_of_string_opt
  in
  List.exists
    (fun v -> v > max_declared)
    (header (String.split_on_char '\n' doc))

(* Name, areas, nets in order with their pins and weights, and every
   module's incidence. *)
let same_hypergraph a b =
  let incidence h = Array.init (H.num_modules h) (H.nets_of h) in
  H.name a = H.name b
  && Array.init (H.num_modules a) (H.area a)
     = Array.init (H.num_modules b) (H.area b)
  && Array.init (H.num_nets a) (fun e -> (H.net_weight a e, H.pins_of a e))
     = Array.init (H.num_nets b) (fun e -> (H.net_weight b e, H.pins_of b e))
  && incidence a = incidence b

let describe = function
  | Ok { Hgr_io.hypergraph; warnings } ->
      Format.asprintf "Ok (%a) [%s]" H.pp_summary hypergraph
        (String.concat "; " (List.map Diag.to_string warnings))
  | Error diags ->
      Printf.sprintf "Error [%s]" (String.concat "; " (List.map Diag.to_string diags))

let agree want got =
  match (want, got) with
  | Ok a, Ok b ->
      same_hypergraph a.Hgr_io.hypergraph b.Hgr_io.hypergraph
      && a.warnings = b.warnings
  | Error a, Error b -> a = b
  | _ -> false

(* [parse_file] and [parse_string ~name] against the reference reading the
   same bytes from a file, line by line, in both modes; returns whether the
   case ran. *)
let check_against_reference ~what ~path doc =
  if declares_too_much doc then false
  else begin
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc doc);
    let name = Filename.remove_extension (Filename.basename path) in
    List.iter
      (fun mode ->
        let want = Hgr_reference.parse_file ~mode path in
        List.iter
          (fun (entry, parse) ->
            let got =
              match parse () with
              | got -> got
              | exception e ->
                  Alcotest.failf "%s %S (%s, %s): raised %s" what doc entry
                    (mode_name mode) (Printexc.to_string e)
            in
            if not (agree want got) then
              Alcotest.failf "%s %S (%s, %s):\nreference %s\nscanner   %s"
                what doc entry (mode_name mode) (describe want) (describe got))
          [
            ("parse_file", fun () -> Hgr_io.parse_file ~mode path);
            ("parse_string", fun () -> Hgr_io.parse_string ~name ~mode doc);
          ])
      [ Hgr_io.Strict; Hgr_io.Lenient ];
    true
  end

let test_differential_hgr () =
  let rng = Rng.create 0x44494646 (* "DIFF" *) in
  let path = Filename.temp_file "mlpart_fuzz" ".hgr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let ran = ref 0 in
      for case = 1 to cases do
        let doc =
          if Rng.bool rng then differential_doc rng else random_hgr_doc rng
        in
        if
          check_against_reference
            ~what:(Printf.sprintf "case %d" case)
            ~path (flavour rng doc)
        then incr ran
      done;
      (* edge documents: empty, blank, header only, no final newline *)
      List.iter
        (fun doc -> ignore (check_against_reference ~what:"edge" ~path doc))
        [ ""; "\n"; "\n\n"; " \r\n"; "%"; "% only\n"; "2 3"; "2 3\n";
          "2 3\n1 2"; "2 3\n1 2\n"; "2 3\n1 2\n\n"; "1 2\r\n1 2\r\n";
          "1 2 1\n\t0 1 2\n"; "1 3 10\n1 2\n1\n"; "1 2\n1\t2\n";
          "1 2 11\n3 1 2\n4\n5 5\n" ];
      Alcotest.(check bool)
        (Printf.sprintf "most cases run (%d of %d)" !ran cases)
        true
        (!ran * 10 >= cases * 9))

(* ---- round-trip property ---- *)

let test_roundtrip_hgr () =
  let rng = Rng.create 0x52545248 in
  for case = 1 to Stdlib.min cases 200 do
    let h = random_hypergraph rng in
    match Hgr_io.parse_string ~mode:Hgr_io.Strict (Hgr_io.to_string h) with
    | Ok { Hgr_io.hypergraph; _ } ->
        if not (same_hypergraph h hypergraph) then
          Alcotest.failf "case %d: hgr round-trip changed the hypergraph" case
    | Error diags ->
        Alcotest.failf "case %d: round-trip rejected: %s" case
          (String.concat "; " (List.map Diag.to_string diags))
  done

let test_roundtrip_netd () =
  let rng = Rng.create 0x5254524E in
  for case = 1 to Stdlib.min cases 200 do
    let h = random_hypergraph rng in
    match
      Netd_io.parse_net_string ~mode:Hgr_io.Strict (Netd_io.write_net_string h)
    with
    | Ok { Netd_io.hypergraph; _ } ->
        (* .net carries no weights/areas, so compare the pin structure *)
        if
          H.num_modules hypergraph <> H.num_modules h
          || H.num_nets hypergraph <> H.num_nets h
          || Array.init (H.num_nets h) (fun e -> Array.to_list (H.pins_of h e))
             <> Array.init (H.num_nets hypergraph) (fun e ->
                    Array.to_list (H.pins_of hypergraph e))
        then Alcotest.failf "case %d: netd round-trip changed the netlist" case
    | Error diags ->
        Alcotest.failf "case %d: round-trip rejected: %s" case
          (String.concat "; " (List.map Diag.to_string diags))
  done

(* ---- checked-in corrupt corpus ---- *)

(* dune runtest runs from _build/default/test; dune exec may run from the
   project root — accept either. *)
let corpus_dir =
  let candidates =
    [
      Filename.concat (Filename.concat ".." "examples") "corrupt";
      Filename.concat "examples" "corrupt";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some dir -> dir
  | None -> List.hd candidates

let test_corpus () =
  if not (Sys.file_exists corpus_dir) then
    Alcotest.failf "missing corrupt corpus at %s" corpus_dir;
  let entries = Sys.readdir corpus_dir in
  Array.sort compare entries;
  let hgr = ref 0 and netd = ref 0 in
  Array.iter
    (fun file ->
      let path = Filename.concat corpus_dir file in
      if Filename.check_suffix file ".hgr" then begin
        incr hgr;
        (* every corpus .hgr is corrupt: strict must reject, and neither
           mode may raise *)
        (match Hgr_io.parse_file ~mode:Hgr_io.Strict path with
        | Ok _ -> Alcotest.failf "%s: strict accepted corrupt input" file
        | Error [] -> Alcotest.failf "%s: no diagnostics" file
        | Error _ -> ()
        | exception e ->
            Alcotest.failf "%s: raised %s" file (Printexc.to_string e));
        assert_total ~what:file ~mode:Hgr_io.Lenient (fun () ->
            Hgr_io.parse_file ~mode:Hgr_io.Lenient path);
        (* the bytes read as a string give exactly the file's answer, and
           both give the reference's *)
        let bytes = In_channel.with_open_bin path In_channel.input_all in
        let name = Filename.remove_extension file in
        List.iter
          (fun mode ->
            let from_file = Hgr_io.parse_file ~mode path in
            let from_string = Hgr_io.parse_string ~name ~mode bytes in
            if not (agree from_file from_string) then
              Alcotest.failf "%s (%s): parse_string %s, parse_file %s" file
                (mode_name mode) (describe from_string) (describe from_file);
            let want = Hgr_reference.parse_file ~mode path in
            if not (agree want from_file) then
              Alcotest.failf "%s (%s): reference %s, parse_file %s" file
                (mode_name mode) (describe want) (describe from_file))
          [ Hgr_io.Strict; Hgr_io.Lenient ]
      end
      else if Filename.check_suffix file ".netD" then begin
        incr netd;
        (match Netd_io.parse_files ~mode:Hgr_io.Strict path with
        | Ok _ -> Alcotest.failf "%s: strict accepted corrupt input" file
        | Error [] -> Alcotest.failf "%s: no diagnostics" file
        | Error _ -> ()
        | exception e ->
            Alcotest.failf "%s: raised %s" file (Printexc.to_string e));
        assert_total_netd ~what:file ~mode:Hgr_io.Lenient (fun () ->
            Netd_io.parse_files ~mode:Hgr_io.Lenient path)
      end)
    entries;
  Alcotest.(check bool) "corpus has .hgr cases" true (!hgr >= 5);
  Alcotest.(check bool) "corpus has .netD cases" true (!netd >= 3)

let () =
  Alcotest.run "fuzz-io"
    [
      ( "fuzz",
        [
          Alcotest.test_case "hgr totality" `Quick test_fuzz_hgr;
          Alcotest.test_case "netd totality" `Quick test_fuzz_netd;
          Alcotest.test_case "hgr matches reference" `Quick
            test_differential_hgr;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "hgr" `Quick test_roundtrip_hgr;
          Alcotest.test_case "netd" `Quick test_roundtrip_netd;
        ] );
      ("corpus", [ Alcotest.test_case "corrupt files" `Quick test_corpus ]);
    ]
