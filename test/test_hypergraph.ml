(* Tests for the hypergraph substrate: construction, CSR consistency,
   induce (Definition 1), builder and .hgr I/O. *)

module H = Mlpart_hypergraph.Hypergraph
module Builder = Mlpart_hypergraph.Builder
module Hgr_io = Mlpart_hypergraph.Hgr_io
module Rng = Mlpart_util.Rng
module Diag = Mlpart_util.Diag

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* A small reference netlist used across tests:
   modules 0..4, nets {0,1}, {1,2,3}, {0,3,4}, weights 1,2,1. *)
let sample () =
  H.make ~name:"sample"
    ~areas:[| 1; 2; 3; 4; 5 |]
    ~nets:[| ([| 0; 1 |], 1); ([| 1; 2; 3 |], 2); ([| 0; 3; 4 |], 1) |]
    ()

(* ---- construction and validation ---- *)

let test_sizes () =
  let h = sample () in
  check Alcotest.int "modules" 5 (H.num_modules h);
  check Alcotest.int "nets" 3 (H.num_nets h);
  check Alcotest.int "pins" 8 (H.num_pins h);
  check Alcotest.int "total area" 15 (H.total_area h);
  check Alcotest.int "max area" 5 (H.max_area h);
  check Alcotest.string "name" "sample" (H.name h)

let expect_invalid f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_reject_small_net () =
  expect_invalid (fun () ->
      H.make ~areas:[| 1; 1 |] ~nets:[| ([| 0 |], 1) |] ())

let test_reject_duplicate_pin () =
  expect_invalid (fun () ->
      H.make ~areas:[| 1; 1 |] ~nets:[| ([| 0; 0 |], 1) |] ())

let test_reject_out_of_range_pin () =
  expect_invalid (fun () ->
      H.make ~areas:[| 1; 1 |] ~nets:[| ([| 0; 5 |], 1) |] ())

let test_reject_bad_area () =
  expect_invalid (fun () -> H.make ~areas:[| 0; 1 |] ~nets:[||] ())

let test_reject_bad_weight () =
  expect_invalid (fun () ->
      H.make ~areas:[| 1; 1 |] ~nets:[| ([| 0; 1 |], 0) |] ())

let test_empty_nets_ok () =
  let h = H.make ~areas:[| 1; 1 |] ~nets:[||] () in
  check Alcotest.int "no nets" 0 (H.num_nets h);
  check Alcotest.int "no pins" 0 (H.num_pins h);
  check Alcotest.int "degree" 0 (H.module_degree h 0)

(* ---- CSR consistency ---- *)

let test_incidence_inverse () =
  let h = sample () in
  (* every (net, pin) pair appears in both directions *)
  for e = 0 to H.num_nets h - 1 do
    H.iter_pins_of h e (fun v ->
        let nets = Array.to_list (H.nets_of h v) in
        if not (List.mem e nets) then
          Alcotest.failf "net %d missing from nets_of %d" e v)
  done;
  for v = 0 to H.num_modules h - 1 do
    H.iter_nets_of h v (fun e ->
        let pins = Array.to_list (H.pins_of h e) in
        if not (List.mem v pins) then
          Alcotest.failf "module %d missing from pins_of %d" v e)
  done

let test_degrees () =
  let h = sample () in
  check Alcotest.int "degree of 0" 2 (H.module_degree h 0);
  check Alcotest.int "degree of 2" 1 (H.module_degree h 2);
  check Alcotest.int "max degree" 2 (H.max_module_degree h);
  (* module 3 touches nets of weight 2 and 1 *)
  check Alcotest.int "max weighted degree" 3 (H.max_weighted_degree h);
  check Alcotest.int "total net weight" 4 (H.total_net_weight h)

let test_net_accessors () =
  let h = sample () in
  check Alcotest.int "net 1 size" 3 (H.net_size h 1);
  check Alcotest.int "net 1 weight" 2 (H.net_weight h 1);
  check Alcotest.(array int) "net 1 pins" [| 1; 2; 3 |] (H.pins_of h 1)

let test_pin_slots () =
  let h = sample () in
  for e = 0 to H.num_nets h - 1 do
    let base = H.net_offset h e in
    let via_slots = Array.init (H.net_size h e) (fun i -> H.pin_at h (base + i)) in
    check Alcotest.(array int) "slots agree with pins_of" (H.pins_of h e) via_slots
  done

let test_folds () =
  let h = sample () in
  let sum_pins = H.fold_pins_of h 1 ~init:0 ~f:( + ) in
  check Alcotest.int "fold pins" 6 sum_pins;
  let count_nets = H.fold_nets_of h 0 ~init:0 ~f:(fun acc _ -> acc + 1) in
  check Alcotest.int "fold nets" 2 count_nets

(* ---- induce ---- *)

let test_induce_basic () =
  let h = sample () in
  (* clusters: {0,1} -> 0, {2,3} -> 1, {4} -> 2 *)
  let coarse, k = H.induce h [| 0; 0; 1; 1; 2 |] in
  check Alcotest.int "clusters" 3 k;
  check Alcotest.int "coarse modules" 3 (H.num_modules coarse);
  (* net {0,1} collapses inside cluster 0 and is dropped; {1,2,3} spans
     {0,1}; {0,3,4} spans {0,1,2} *)
  check Alcotest.int "coarse nets" 2 (H.num_nets coarse);
  check Alcotest.int "areas summed" 3 (H.area coarse 0);
  check Alcotest.int "areas summed" 7 (H.area coarse 1);
  check Alcotest.int "areas summed" 5 (H.area coarse 2);
  check Alcotest.int "total area preserved" (H.total_area h) (H.total_area coarse)

let test_induce_merge_duplicates () =
  let h =
    H.make ~areas:[| 1; 1; 1; 1 |]
      ~nets:[| ([| 0; 2 |], 1); ([| 1; 3 |], 3); ([| 0; 1 |], 1) |]
      ()
  in
  (* clusters {0,1} and {2,3}: first two nets both become {0,1} coarse *)
  let merged, _ = H.induce ~merge_duplicates:true h [| 0; 0; 1; 1 |] in
  check Alcotest.int "merged nets" 1 (H.num_nets merged);
  check Alcotest.int "weights summed" 4 (H.net_weight merged 0);
  let unmerged, _ = H.induce h [| 0; 0; 1; 1 |] in
  check Alcotest.int "duplicates kept" 2 (H.num_nets unmerged)

let test_induce_rejects_empty_cluster () =
  let h = sample () in
  expect_invalid (fun () -> H.induce h [| 0; 0; 2; 2; 2 |])

let test_induce_rejects_length_mismatch () =
  let h = sample () in
  expect_invalid (fun () -> H.induce h [| 0; 0 |])

(* ---- builder ---- *)

let test_builder_basics () =
  let b = Builder.create ~name:"b" () in
  let v0 = Builder.add_module b () in
  let v1 = Builder.add_module b ~area:7 () in
  Builder.add_modules b 2;
  check Alcotest.int "ids sequential" 0 v0;
  check Alcotest.int "ids sequential" 1 v1;
  Builder.add_net b [ 0; 1; 2 ];
  Builder.add_net b [ 3; 3 ];
  (* collapses to 1 pin: dropped *)
  Builder.add_net b [ 2; 2; 3 ];
  (* dedups to {2,3} *)
  let h = Builder.build b in
  check Alcotest.int "modules" 4 (H.num_modules h);
  check Alcotest.int "degenerate dropped" 2 (H.num_nets h);
  check Alcotest.int "area honoured" 7 (H.area h 1)

let test_builder_reusable () =
  let b = Builder.create () in
  Builder.add_modules b 2;
  Builder.add_net b [ 0; 1 ];
  let h1 = Builder.build b in
  Builder.add_net b [ 0; 1 ];
  let h2 = Builder.build b in
  check Alcotest.int "first build" 1 (H.num_nets h1);
  check Alcotest.int "second build sees new net" 2 (H.num_nets h2)

(* ---- validate / repair ---- *)

(* [make_unchecked] lets tests build the degenerate values that lenient
   ingestion has to survive. *)
let degenerate () =
  H.make_unchecked ~name:"degen"
    ~areas:[| 1; 0; 3; -2 |]
    ~nets:
      [|
        ([| 0; 1 |], 1); (* fine *)
        ([| 2; 2; 3 |], 0); (* duplicate pin, bad weight *)
        ([| 1 |], 1); (* singleton *)
        ([||], 1); (* empty *)
      |]
    ()

let test_validate_clean () =
  check Alcotest.bool "sample validates" true (H.validate (sample ()) = Ok ())

let test_validate_degenerate () =
  match H.validate (degenerate ()) with
  | Ok () -> Alcotest.fail "expected violations"
  | Error diags ->
      let count c = List.length (List.filter (fun d -> d.Diag.code = c) diags) in
      check Alcotest.int "bad areas" 2 (count Diag.Bad_area);
      check Alcotest.int "bad weight" 1 (count Diag.Bad_weight);
      check Alcotest.int "duplicate pin" 1 (count Diag.Duplicate_pin);
      check Alcotest.int "singleton" 1 (count Diag.Singleton_net);
      check Alcotest.int "empty" 1 (count Diag.Empty_net);
      check Alcotest.bool "all errors" true
        (List.for_all (fun d -> d.Diag.severity = Diag.Error) diags)

let test_repair_degenerate () =
  let repaired, report = H.repair (degenerate ()) in
  check Alcotest.bool "repaired validates" true (H.validate repaired = Ok ());
  check Alcotest.int "nets dropped" 2 report.H.dropped_nets;
  check Alcotest.int "pins deduped" 1 report.H.deduped_pins;
  check Alcotest.int "areas clamped" 2 report.H.clamped_areas;
  check Alcotest.int "weights clamped" 1 report.H.clamped_weights;
  check Alcotest.int "surviving nets" 2 (H.num_nets repaired);
  check Alcotest.(array int) "net order preserved" [| 0; 1 |] (H.pins_of repaired 0);
  check Alcotest.(array int) "deduped net" [| 2; 3 |] (H.pins_of repaired 1);
  check Alcotest.int "clamped area" 1 (H.area repaired 1);
  check Alcotest.int "clamped weight" 1 (H.net_weight repaired 1)

let test_repair_identity_on_valid () =
  let h = sample () in
  let repaired, report = H.repair h in
  check Alcotest.int "no drops" 0 report.H.dropped_nets;
  check Alcotest.int "no dedup" 0 report.H.deduped_pins;
  check Alcotest.int "no clamps" 0
    (report.H.clamped_areas + report.H.clamped_weights);
  check Alcotest.bool "no diags" true (report.H.repair_diags = []);
  check Alcotest.int "same nets" (H.num_nets h) (H.num_nets repaired);
  check Alcotest.int "same pins" (H.num_pins h) (H.num_pins repaired)

(* ---- hgr io ---- *)

let test_io_roundtrip_plain () =
  let h = sample () in
  (* sample has non-unit areas and weights -> fmt 11 *)
  let text = Hgr_io.to_string h in
  let h' = Hgr_io.of_string text in
  check Alcotest.int "modules" (H.num_modules h) (H.num_modules h');
  check Alcotest.int "nets" (H.num_nets h) (H.num_nets h');
  check Alcotest.int "pins" (H.num_pins h) (H.num_pins h');
  for v = 0 to H.num_modules h - 1 do
    check Alcotest.int "area" (H.area h v) (H.area h' v)
  done;
  for e = 0 to H.num_nets h - 1 do
    check Alcotest.int "weight" (H.net_weight h e) (H.net_weight h' e);
    check Alcotest.(array int) "pins" (H.pins_of h e) (H.pins_of h' e)
  done

let test_io_unit_weights_header () =
  let h = H.make ~areas:[| 1; 1 |] ~nets:[| ([| 0; 1 |], 1) |] () in
  let text = Hgr_io.to_string h in
  check Alcotest.string "no fmt field" "1 2" (List.hd (String.split_on_char '\n' text))

let test_io_comments_and_blanks () =
  let text = "% header comment\n\n2 3\n 1 2 \n% another\n2 3\n" in
  let h = Hgr_io.of_string text in
  check Alcotest.int "nets parsed" 2 (H.num_nets h);
  check Alcotest.int "modules" 3 (H.num_modules h)

(* Typed rejection: the legacy entry points raise [Diag.Mlpart_error]
   carrying the expected code. *)
let expect_diag code f =
  match f () with
  | _ -> Alcotest.fail "expected Mlpart_error"
  | exception Diag.Mlpart_error diags ->
      check Alcotest.bool
        (Printf.sprintf "carries %s" (Diag.code_name code))
        true
        (List.exists (fun d -> d.Diag.code = code) diags)

let test_io_rejects_bad_header () =
  expect_diag Diag.Bad_header (fun () -> Hgr_io.of_string "abc\n")

let test_io_rejects_out_of_range_pin () =
  expect_diag Diag.Pin_out_of_range (fun () -> Hgr_io.of_string "1 2\n1 3\n")

let test_io_rejects_truncated () =
  expect_diag Diag.Truncated (fun () -> Hgr_io.of_string "2 3\n1 2\n")

let test_io_single_pin_net_strict_vs_lenient () =
  let text = "2 3\n1 1\n1 2\n" in
  (* strict: the drop would silently renumber nets -> typed error with the
     original net index *)
  expect_diag Diag.Singleton_net (fun () -> Hgr_io.of_string text);
  (* lenient: dropped, and the warning names the original net index 0 and
     its source line *)
  match Hgr_io.parse_string ~mode:Hgr_io.Lenient text with
  | Error _ -> Alcotest.fail "lenient parse should succeed"
  | Ok { Hgr_io.hypergraph = h; warnings } ->
      check Alcotest.int "degenerate net dropped" 1 (H.num_nets h);
      let w = List.find (fun d -> d.Diag.code = Diag.Singleton_net) warnings in
      check Alcotest.int "warning line" 2 w.Diag.line;
      check Alcotest.bool "warning names net 0" true
        (String.length w.Diag.message >= 5 && String.sub w.Diag.message 0 5 = "net 0")

let test_io_lenient_recovers_degenerate () =
  (* out-of-range pin dropped, duplicate collapsed, weight clamped, short
     module-weight section defaulted — one warning each, result valid *)
  let text = "2 3 11\n0 1 2 9\n2 2 3 3\n4\n" in
  match Hgr_io.parse_string ~mode:Hgr_io.Lenient text with
  | Error ds ->
      Alcotest.failf "lenient parse failed: %s"
        (String.concat "; " (List.map Diag.to_string ds))
  | Ok { Hgr_io.hypergraph = h; warnings } ->
      check Alcotest.int "both nets kept" 2 (H.num_nets h);
      check Alcotest.(array int) "net 0 pins" [| 0; 1 |] (H.pins_of h 0);
      check Alcotest.(array int) "net 1 pins" [| 1; 2 |] (H.pins_of h 1);
      check Alcotest.int "weight clamped" 1 (H.net_weight h 0);
      check Alcotest.int "area read" 4 (H.area h 0);
      check Alcotest.int "missing areas default" 1 (H.area h 2);
      check Alcotest.bool "validates" true (H.validate h = Ok ());
      let has c = List.exists (fun d -> d.Diag.code = c) warnings in
      check Alcotest.bool "pin range warning" true (has Diag.Pin_out_of_range);
      check Alcotest.bool "duplicate warning" true (has Diag.Duplicate_pin);
      check Alcotest.bool "weight warning" true (has Diag.Bad_weight);
      check Alcotest.bool "truncation warning" true (has Diag.Truncated)

let test_io_strict_reports_all_issues () =
  (* strict mode scans the whole file: both problems reported, not just
     the first *)
  match Hgr_io.parse_string ~mode:Hgr_io.Strict "2 3\n1 9\n4 2\n" with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error diags ->
      let codes = List.map (fun d -> d.Diag.code) diags in
      check Alcotest.bool "range error present" true
        (List.mem Diag.Pin_out_of_range codes);
      check Alcotest.bool "second line's error present" true
        (List.length (List.filter (fun c -> c = Diag.Pin_out_of_range) codes) >= 2)

let test_io_net_weights_only () =
  let h =
    H.make ~areas:[| 1; 1; 1 |]
      ~nets:[| ([| 0; 1 |], 3); ([| 1; 2 |], 1) |]
      ()
  in
  let text = Hgr_io.to_string h in
  check Alcotest.string "fmt 1 header" "2 3 1"
    (List.hd (String.split_on_char '\n' text));
  let h' = Hgr_io.of_string text in
  check Alcotest.int "weight preserved" 3 (H.net_weight h' 0);
  check Alcotest.int "unit area stays" 1 (H.area h' 0)

let test_io_file_roundtrip () =
  let h = sample () in
  let path = Filename.temp_file "mlpart_test" ".hgr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Hgr_io.write_file path h;
      let h' = Hgr_io.read_file path in
      check Alcotest.int "pins preserved" (H.num_pins h) (H.num_pins h');
      check Alcotest.bool "named after file" true (String.length (H.name h') > 0))

(* ---- properties ---- *)

let arbitrary_hypergraph =
  (* Random netlists via the rent generator; shrinking is not useful here. *)
  QCheck.make
    (QCheck.Gen.map
       (fun seed ->
         let rng = Rng.create seed in
         Mlpart_gen.Generate.rent ~rng ~modules:60 ~nets:80 ~pins:220 ())
       QCheck.Gen.small_int)

let prop_io_roundtrip =
  QCheck.Test.make ~name:"hgr roundtrip preserves structure" ~count:50
    arbitrary_hypergraph (fun h ->
      let h' = Hgr_io.of_string (Hgr_io.to_string h) in
      H.num_modules h = H.num_modules h'
      && H.num_nets h = H.num_nets h'
      && H.num_pins h = H.num_pins h')

let prop_induce_preserves_area =
  QCheck.Test.make ~name:"induce preserves total area" ~count:50
    QCheck.(pair arbitrary_hypergraph small_int)
    (fun (h, seed) ->
      let rng = Rng.create seed in
      let k = 1 + Rng.int rng (H.num_modules h) in
      (* random clustering made contiguous: ensure every id < k used *)
      let cluster_of =
        Array.init (H.num_modules h) (fun v -> if v < k then v else Rng.int rng k)
      in
      let coarse, k' = H.induce h cluster_of in
      k' = k && H.total_area coarse = H.total_area h)

let prop_induce_net_sizes =
  QCheck.Test.make ~name:"induced nets have >= 2 pins and weights preserved"
    ~count:50
    QCheck.(pair arbitrary_hypergraph small_int)
    (fun (h, seed) ->
      let rng = Rng.create seed in
      let k = Stdlib.max 2 (H.num_modules h / 3) in
      let cluster_of =
        Array.init (H.num_modules h) (fun v -> if v < k then v else Rng.int rng k)
      in
      let coarse, _ = H.induce h cluster_of in
      let ok = ref true in
      for e = 0 to H.num_nets coarse - 1 do
        if H.net_size coarse e < 2 || H.net_weight coarse e < 1 then ok := false
      done;
      !ok)

(* Pin-for-pin equality of two hypergraphs: same sizes, same areas, same
   nets in the same order with identical sorted pin runs and weights. *)
let equal_hypergraphs a b =
  H.num_modules a = H.num_modules b
  && H.num_nets a = H.num_nets b
  && H.num_pins a = H.num_pins b
  && Array.init (H.num_modules a) (H.area a)
     = Array.init (H.num_modules b) (H.area b)
  && begin
       let ok = ref true in
       for e = 0 to H.num_nets a - 1 do
         if H.net_weight a e <> H.net_weight b e || H.pins_of a e <> H.pins_of b e
         then ok := false
       done;
       !ok
     end

(* One arena shared across every generated case and both pool sizes
   exercises the generational stamping: reuse across hypergraphs of
   different sizes and across domain counts must not leak marks between
   calls. *)
let shared_arena = H.create_arena ()

let prop_induce_matches_reference =
  QCheck.Test.make
    ~name:"direct-CSR induce equals reference impl (both merge settings)"
    ~count:100
    QCheck.(triple arbitrary_hypergraph small_int bool)
    (fun (h, seed, pooled) ->
      let rng = Rng.create seed in
      let n = H.num_modules h in
      (* small cluster counts make duplicate coarse nets likely *)
      let k = 1 + Rng.int rng (Stdlib.max 1 (n / 2)) in
      let cluster_of =
        Array.init n (fun v -> if v < k then v else Rng.int rng k)
      in
      let pool = if pooled then Some (Mlpart_util.Pool.get ~jobs:2) else None in
      List.for_all
        (fun merge_duplicates ->
          let fast, kf =
            H.induce ~merge_duplicates ~arena:shared_arena ?pool h cluster_of
          in
          let fresh, kn = H.induce ~merge_duplicates ?pool h cluster_of in
          let slow, ks = H.induce_reference ~merge_duplicates h cluster_of in
          kf = ks && kn = ks && equal_hypergraphs fast slow
          && equal_hypergraphs fresh slow)
        [ false; true ])

(* ---- netD io ---- *)

module Netd = Mlpart_hypergraph.Netd_io

let sample_net =
  "0\n7\n2\n4\n2\na0 s\na1 l\np1 l\na2 s I\na0 l O\na1 l\np1 l\n"
(* modules: a0,a1,a2 (cells, pad offset 2), p1 -> id 3; nets {0,1,3} and
   {2,0,1,3} *)

let test_netd_parse () =
  let h = Netd.read_net_string ~name:"tiny" sample_net in
  check Alcotest.int "modules" 4 (H.num_modules h);
  check Alcotest.int "nets" 2 (H.num_nets h);
  check Alcotest.(array int) "net 0 pins" [| 0; 1; 3 |] (H.pins_of h 0);
  check Alcotest.(array int) "net 1 pins" [| 0; 1; 2; 3 |] (H.pins_of h 1)

let test_netd_areas () =
  let are = "a0 5\np1 7\n" in
  let h = Netd.read_net_string ~are sample_net in
  check Alcotest.int "cell area" 5 (H.area h 0);
  check Alcotest.int "pad area" 7 (H.area h 3);
  check Alcotest.int "default area" 1 (H.area h 1)

let test_netd_pads () =
  let h = Netd.read_net_string sample_net in
  check Alcotest.(list int) "pad ids" [ 3 ] (Netd.pads h sample_net)

let test_netd_rejects_bad () =
  expect_diag Diag.Bad_header (fun () ->
      Netd.read_net_string "1\n1\n1\n1\n1\na0 s\n" (* leading 0 missing *));
  expect_diag Diag.Bad_token (fun () ->
      Netd.read_net_string "0\n1\n1\n2\n1\na0 l\n" (* continuation first *));
  expect_diag Diag.Bad_module_name (fun () ->
      Netd.read_net_string "0\n1\n1\n2\n1\nq0 s\n" (* bad name *));
  expect_diag Diag.Pin_out_of_range (fun () ->
      Netd.read_net_string "0\n2\n1\n2\n1\na0 s\na9 l\n" (* beyond count *))

let test_netd_count_check () =
  expect_diag Diag.Count_mismatch (fun () ->
      Netd.read_net_string "0\n5\n2\n4\n2\na0 s\na1 l\n")

(* Golden diagnostics: exact rendered lines, strict mode.  These pin the
   structured-output contract the CLI prints and scripts can grep. *)
let strict_diag_lines s =
  match Netd.parse_net_string ~name:"bad" ~mode:Netd.Strict s with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error diags -> List.map Diag.to_string diags

let test_netd_golden_bad_name () =
  check
    Alcotest.(list string)
    "golden"
    [ "error[bad-module-name] bad:6: module name \"q0\" must start with 'a' or 'p'" ]
    (strict_diag_lines "0\n3\n1\n3\n2\nq0 s\na1 l\na2 l\n")

let test_netd_golden_pad_offset () =
  (* a9 with pad offset 2: outside the cell namespace, and its id also
     exceeds the declared module count *)
  check
    Alcotest.(list string)
    "golden"
    [ "error[pad-offset] bad:7: cell \"a9\" outside pad offset 2";
      "error[pin-out-of-range] bad:7: module \"a9\" maps to id 9 outside \
       declared count 3" ]
    (strict_diag_lines "0\n3\n1\n3\n2\na0 s\na9 l\na1 l\n");
  check
    Alcotest.(list string)
    "golden pad index"
    [ "error[pad-offset] bad:6: bad pad index in \"p0\"" ]
    (strict_diag_lines "0\n3\n1\n3\n2\np0 s\na1 l\na2 l\n")

let test_netd_golden_truncated () =
  check
    Alcotest.(list string)
    "golden"
    [ "error[truncated] bad:3: missing or malformed header (need 5 \
       single-token header lines)" ]
    (strict_diag_lines "0\n4\n2\n")

(* The same inputs in lenient mode: parse succeeds, each problem becomes a
   warning with the same code, and the offending pin is dropped. *)
let test_netd_lenient_recovers () =
  let parse s =
    match Netd.parse_net_string ~name:"bad" ~mode:Netd.Lenient s with
    | Ok p -> p
    | Error ds ->
        Alcotest.failf "lenient parse failed: %s"
          (String.concat "; " (List.map Diag.to_string ds))
  in
  let has code p = List.exists (fun d -> d.Diag.code = code) p.Netd.warnings in
  let all_warnings p =
    List.for_all (fun d -> d.Diag.severity = Diag.Warning) p.Netd.warnings
  in
  let p = parse "0\n3\n1\n3\n2\nq0 s\na1 l\na2 l\n" in
  check Alcotest.bool "bad name warned" true (has Diag.Bad_module_name p);
  check Alcotest.bool "only warnings" true (all_warnings p);
  check Alcotest.int "net survives without the bad pin" 1
    (H.num_nets p.Netd.hypergraph);
  check Alcotest.(array int) "remaining pins" [| 1; 2 |]
    (H.pins_of p.Netd.hypergraph 0);
  let p = parse "0\n2\n1\n3\n2\na0 s\na9 l\n" in
  check Alcotest.bool "pad-offset warned" true (has Diag.Pad_offset p);
  check Alcotest.bool "range warned" true (has Diag.Pin_out_of_range p);
  (* a0 alone is a singleton -> dropped with a warning *)
  check Alcotest.bool "singleton warned" true (has Diag.Singleton_net p);
  check Alcotest.int "degenerate net dropped" 0 (H.num_nets p.Netd.hypergraph);
  (* truncated header stays fatal even in lenient mode *)
  match Netd.parse_net_string ~name:"bad" ~mode:Netd.Lenient "0\n4\n2\n" with
  | Ok _ -> Alcotest.fail "truncated header must stay fatal"
  | Error diags ->
      check Alcotest.bool "truncated" true
        (List.exists (fun d -> d.Diag.code = Diag.Truncated) diags)

let test_netd_roundtrip () =
  let rng = Rng.create 9 in
  let h = Mlpart_gen.Generate.rent ~rng ~modules:40 ~nets:50 ~pins:150 () in
  let h' = Netd.read_net_string (Netd.write_net_string h) in
  check Alcotest.int "modules" (H.num_modules h) (H.num_modules h');
  check Alcotest.int "nets" (H.num_nets h) (H.num_nets h');
  check Alcotest.int "pins" (H.num_pins h) (H.num_pins h')

let test_netd_file_read () =
  let path = Filename.temp_file "mlpart_test" ".net" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc sample_net);
      let h = Netd.read_files path in
      check Alcotest.int "modules" 4 (H.num_modules h);
      check Alcotest.bool "named" true (String.length (H.name h) > 0))

(* ---- analysis ---- *)

module An = Mlpart_hypergraph.Analysis

let test_analysis_components () =
  (* two disjoint rings plus one isolated module *)
  let b = Builder.create () in
  Builder.add_modules b 9;
  for v = 0 to 3 do
    Builder.add_net b [ v; (v + 1) mod 4 ]
  done;
  for v = 4 to 7 do
    Builder.add_net b [ v; 4 + ((v - 3) mod 4) ]
  done;
  let h = Builder.build b in
  let component_of, count = An.connected_components h in
  check Alcotest.int "three components" 3 count;
  check Alcotest.int "ring 1 together" component_of.(0) component_of.(3);
  check Alcotest.int "ring 2 together" component_of.(4) component_of.(7);
  check Alcotest.bool "rings apart" true (component_of.(0) <> component_of.(4));
  check Alcotest.bool "not connected" false (An.is_connected h)

let test_analysis_connected () =
  let h = Mlpart_gen.Generate.ring 12 in
  check Alcotest.bool "ring connected" true (An.is_connected h)

let test_analysis_histograms () =
  let h = Mlpart_gen.Generate.ring 5 in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "degree histogram" [ (2, 5) ] (An.degree_histogram h);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "net size histogram" [ (2, 5) ] (An.net_size_histogram h);
  check (Alcotest.float 1e-9) "average net size" 2.0 (An.average_net_size h)

let test_analysis_empty_nets () =
  let h = H.make ~areas:[| 1; 1 |] ~nets:[||] () in
  check (Alcotest.float 1e-9) "avg net size of none" 0.0 (An.average_net_size h);
  let _, count = An.connected_components h in
  check Alcotest.int "isolated modules are components" 2 count

let test_analysis_pin_check () =
  let h = sample () in
  check Alcotest.bool "CSR directions agree" true (An.pin_count_check h)

let test_analysis_report_renders () =
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  An.pp_report ppf (sample ());
  Format.pp_print_flush ppf ();
  check Alcotest.bool "non-empty report" true (Buffer.length buf > 50)

let prop_components_cover =
  QCheck.Test.make ~name:"component ids are contiguous and cover all modules"
    ~count:40 arbitrary_hypergraph (fun h ->
      let component_of, count = An.connected_components h in
      let seen = Array.make count false in
      Array.iter (fun c -> seen.(c) <- true) component_of;
      Array.for_all Fun.id seen
      && Array.for_all (fun c -> c >= 0 && c < count) component_of)

let prop_nets_within_component =
  QCheck.Test.make ~name:"no net spans two components" ~count:40
    arbitrary_hypergraph (fun h ->
      let component_of, _ = An.connected_components h in
      let ok = ref true in
      for e = 0 to H.num_nets h - 1 do
        let c = ref (-1) in
        H.iter_pins_of h e (fun v ->
            if !c < 0 then c := component_of.(v)
            else if component_of.(v) <> !c then ok := false)
      done;
      !ok)

let () =
  Alcotest.run "hypergraph"
    [
      ( "construction",
        [
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "reject small net" `Quick test_reject_small_net;
          Alcotest.test_case "reject duplicate pin" `Quick test_reject_duplicate_pin;
          Alcotest.test_case "reject out-of-range pin" `Quick
            test_reject_out_of_range_pin;
          Alcotest.test_case "reject bad area" `Quick test_reject_bad_area;
          Alcotest.test_case "reject bad weight" `Quick test_reject_bad_weight;
          Alcotest.test_case "empty net set" `Quick test_empty_nets_ok;
        ] );
      ( "csr",
        [
          Alcotest.test_case "incidence inverse" `Quick test_incidence_inverse;
          Alcotest.test_case "degrees" `Quick test_degrees;
          Alcotest.test_case "net accessors" `Quick test_net_accessors;
          Alcotest.test_case "pin slots" `Quick test_pin_slots;
          Alcotest.test_case "folds" `Quick test_folds;
        ] );
      ( "induce",
        [
          Alcotest.test_case "basic" `Quick test_induce_basic;
          Alcotest.test_case "merge duplicates" `Quick test_induce_merge_duplicates;
          Alcotest.test_case "reject empty cluster" `Quick
            test_induce_rejects_empty_cluster;
          Alcotest.test_case "reject length mismatch" `Quick
            test_induce_rejects_length_mismatch;
          qtest prop_induce_preserves_area;
          qtest prop_induce_net_sizes;
          qtest prop_induce_matches_reference;
        ] );
      ( "netd_io",
        [
          Alcotest.test_case "parse" `Quick test_netd_parse;
          Alcotest.test_case "areas" `Quick test_netd_areas;
          Alcotest.test_case "pads" `Quick test_netd_pads;
          Alcotest.test_case "rejects bad" `Quick test_netd_rejects_bad;
          Alcotest.test_case "count check" `Quick test_netd_count_check;
          Alcotest.test_case "roundtrip" `Quick test_netd_roundtrip;
          Alcotest.test_case "file read" `Quick test_netd_file_read;
          Alcotest.test_case "golden bad name" `Quick test_netd_golden_bad_name;
          Alcotest.test_case "golden pad offset" `Quick
            test_netd_golden_pad_offset;
          Alcotest.test_case "golden truncated" `Quick
            test_netd_golden_truncated;
          Alcotest.test_case "lenient recovers" `Quick test_netd_lenient_recovers;
        ] );
      ( "validate_repair",
        [
          Alcotest.test_case "clean validates" `Quick test_validate_clean;
          Alcotest.test_case "degenerate violations" `Quick
            test_validate_degenerate;
          Alcotest.test_case "repair degenerate" `Quick test_repair_degenerate;
          Alcotest.test_case "repair identity" `Quick
            test_repair_identity_on_valid;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "components" `Quick test_analysis_components;
          Alcotest.test_case "connected" `Quick test_analysis_connected;
          Alcotest.test_case "histograms" `Quick test_analysis_histograms;
          Alcotest.test_case "pin check" `Quick test_analysis_pin_check;
          Alcotest.test_case "empty nets" `Quick test_analysis_empty_nets;
          Alcotest.test_case "report renders" `Quick test_analysis_report_renders;
          qtest prop_components_cover;
          qtest prop_nets_within_component;
        ] );
      ( "builder",
        [
          Alcotest.test_case "basics" `Quick test_builder_basics;
          Alcotest.test_case "reusable" `Quick test_builder_reusable;
        ] );
      ( "hgr_io",
        [
          Alcotest.test_case "roundtrip weighted" `Quick test_io_roundtrip_plain;
          Alcotest.test_case "unit-weight header" `Quick test_io_unit_weights_header;
          Alcotest.test_case "comments and blanks" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "reject bad header" `Quick test_io_rejects_bad_header;
          Alcotest.test_case "reject bad pin" `Quick test_io_rejects_out_of_range_pin;
          Alcotest.test_case "reject truncated" `Quick test_io_rejects_truncated;
          Alcotest.test_case "single-pin net strict vs lenient" `Quick
            test_io_single_pin_net_strict_vs_lenient;
          Alcotest.test_case "lenient recovers degenerate" `Quick
            test_io_lenient_recovers_degenerate;
          Alcotest.test_case "strict reports all issues" `Quick
            test_io_strict_reports_all_issues;
          Alcotest.test_case "net weights only" `Quick test_io_net_weights_only;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          qtest prop_io_roundtrip;
        ] );
    ]
