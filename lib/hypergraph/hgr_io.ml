module Diag = Mlpart_util.Diag

type mode = Strict | Lenient
type parsed = { hypergraph : Hypergraph.t; warnings : Diag.t list }

(* Unrecoverable parse state (malformed header): no sensible recovery
   exists in either mode, so the scan bails out through here. *)
exception Fatal of Diag.t

(* A cursor over a document's bytes.  Lines end at '\n'; a last line
   without one counts, the empty segment after a final '\n' does not, as
   [In_channel.input_line] reads a file.  [next_line] skips blank and '%'
   lines, counting them, and leaves the next line's content, trimmed as
   [String.trim] trims, ending at [hi].  Tokens are the runs of that
   content between ' ' characters; [next_token] puts the next one in
   [ta, tb). *)
type cursor = {
  s : string;
  mutable pos : int;  (** start of the first unread line *)
  mutable line : int;  (** lines read so far *)
  mutable hi : int;
  mutable ta : int;
  mutable tb : int;
  mutable value : int;  (** the token [int_token] last read *)
}

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec next_line c =
  let n = String.length c.s in
  c.pos < n
  && begin
    let stop = ref c.pos in
    while !stop < n && c.s.[!stop] <> '\n' do
      incr stop
    done;
    let lo = ref c.pos and hi = ref !stop in
    c.pos <- !stop + 1;
    c.line <- c.line + 1;
    while !lo < !hi && is_space c.s.[!lo] do
      incr lo
    done;
    while !hi > !lo && is_space c.s.[!hi - 1] do
      decr hi
    done;
    if !lo = !hi || c.s.[!lo] = '%' then next_line c
    else begin
      c.hi <- !hi;
      c.ta <- !lo;
      c.tb <- !lo;
      true
    end
  end

let next_token c =
  let i = ref c.tb in
  while !i < c.hi && c.s.[!i] = ' ' do
    incr i
  done;
  !i < c.hi
  && begin
    c.ta <- !i;
    while !i < c.hi && c.s.[!i] <> ' ' do
      incr i
    done;
    c.tb <- !i;
    true
  end

let token c = String.sub c.s c.ta (c.tb - c.ta)

let literal_token c =
  match int_of_string_opt (token c) with
  | Some v ->
      c.value <- v;
      true
  | None -> false

(* Read the current token into [value]; false when it is no integer.  A
   token of at most 18 ASCII digits, which cannot overflow, is read in
   place.  Every other one ([+3], [0x1f], [1_0], longer digit runs) goes
   through [int_of_string_opt], so OCaml's literal syntax and overflow
   rules decide it as they always have. *)
let int_token c =
  if c.tb - c.ta > 18 then literal_token c
  else begin
    let v = ref 0 and i = ref c.ta in
    while !i < c.tb && c.s.[!i] >= '0' && c.s.[!i] <= '9' do
      v := (!v * 10) + Char.code c.s.[!i] - Char.code '0';
      incr i
    done;
    if !i < c.tb then literal_token c
    else begin
      c.value <- !v;
      true
    end
  end

(* [a] with room for [need] elements, at most [limit]: doubled and copied
   when it has less. *)
let grow a need limit =
  if need <= Array.length a then a
  else begin
    let len = Stdlib.min limit (Stdlib.max need (2 * Array.length a)) in
    let a' = Array.make len 0 in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

(* One scan for both modes.  Every anomaly is recorded through [record]
   with mode-dependent severity (Strict -> Error, Lenient -> Warning) and
   then repaired locally so parsing can continue; at the end the presence
   of any Error decides Ok vs Error.  This way strict mode reports every
   problem in the file, not just the first.

   Each net line's integers go straight into the pin buffer after the
   pins kept so far; its in-range pins are then moved down, sorted and
   de-duplicated in place, and kept by advancing the buffer's top.  Every
   integer token holds a digit and a separator, so a document of [b] bytes
   holds at most [b / 2 + 1] of them: the buffers grow up to that, and
   never as far as a header's counts alone would ask. *)
let parse_string ?(name = "") ~mode s =
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
  let c = { s; pos = 0; line = 0; hi = 0; ta = 0; tb = 0; value = 0 } in
  try
    if not (next_line c) then
      fatal ~line:c.line Diag.Bad_header "empty input, expected header";
    let header = Array.make 3 0 and fields = ref 0 in
    while next_token c do
      if not (int_token c) then
        fatal ~line:c.line Diag.Bad_header "expected integer, got %S" (token c);
      if !fields < 3 then header.(!fields) <- c.value;
      incr fields
    done;
    if !fields < 2 || !fields > 3 then
      fatal ~line:c.line Diag.Bad_header "expected '<nets> <modules> [fmt]'";
    let num_nets = header.(0) and num_modules = header.(1) and fmt = header.(2) in
    if num_nets < 0 || num_modules <= 0 then
      fatal ~line:c.line Diag.Bad_header "non-positive sizes in header";
    if not (List.mem fmt [ 0; 1; 10; 11 ]) then
      fatal ~line:c.line Diag.Bad_header "unsupported fmt %d" fmt;
    let has_net_weights = fmt = 1 || fmt = 11 in
    let has_mod_weights = fmt = 10 || fmt = 11 in
    let max_ints = (String.length s / 2) + 1 in
    let nets_cap = Stdlib.min num_nets max_ints in
    let pins = ref (Array.make (Stdlib.min max_ints ((4 * nets_cap) + 16)) 0) in
    (* a kept net holds two integers at least, so at most [nets_cap] *)
    let weights = Array.make nets_cap 0 and offsets = Array.make (nets_cap + 1) 0 in
    let kept = ref 0 and top = ref 0 in
    (try
       for e = 0 to num_nets - 1 do
         if not (next_line c) then begin
           record ~line:c.line Diag.Truncated
             "input ended at net %d of %d declared" e num_nets;
           raise Exit
         end;
         let len = ref 0 in
         while next_token c do
           if int_token c then begin
             pins := grow !pins (!top + !len + 1) max_ints;
             !pins.(!top + !len) <- c.value;
             incr len
           end
           else
             record ~line:c.line Diag.Bad_token
               "net %d: expected integer, got %S (token dropped)" e (token c)
         done;
         let a = !pins and first = !top in
         let weight =
           if not has_net_weights then 1
           else if !len = 0 then begin
             record ~line:c.line Diag.Empty_net "net %d has no content" e;
             1
           end
           else a.(first)
         in
         let weight =
           if weight <= 0 then begin
             record ~line:c.line Diag.Bad_weight
               "net %d has weight %d (clamped to 1)" e weight;
             1
           end
           else weight
         in
         let in_range = ref 0 in
         for i = first + (if has_net_weights && !len > 0 then 1 else 0)
             to first + !len - 1 do
           let p = a.(i) in
           if p < 1 || p > num_modules then
             record ~line:c.line Diag.Pin_out_of_range
               "net %d: pin %d outside 1..%d (dropped)" e p num_modules
           else begin
             a.(first + !in_range) <- p - 1;
             incr in_range
           end
         done;
         Hypergraph.sort_ints a first !in_range;
         let distinct = ref (Stdlib.min 1 !in_range) in
         for i = first + 1 to first + !in_range - 1 do
           if a.(i) <> a.(first + !distinct - 1) then begin
             a.(first + !distinct) <- a.(i);
             incr distinct
           end
         done;
         if !distinct < !in_range then
           record ~line:c.line Diag.Duplicate_pin
             "net %d: %d duplicate pin(s) collapsed" e (!in_range - !distinct);
         (* A net that projects to fewer than two distinct pins is dropped;
            recording it (with the original net index) keeps the mapping
            between source file and in-memory net ids auditable. *)
         if !distinct >= 2 then begin
           weights.(!kept) <- weight;
           top := first + !distinct;
           incr kept;
           offsets.(!kept) <- !top
         end
         else
           record ~line:c.line Diag.Singleton_net
             "net %d has %d distinct pin(s); dropped" e !distinct
       done
     with Exit -> ());
    let areas = Array.make num_modules 1 in
    if has_mod_weights then begin
      try
        for v = 0 to num_modules - 1 do
          if not (next_line c) then begin
            record ~line:c.line Diag.Truncated
              "input ended at module weight %d of %d declared" v num_modules;
            raise Exit
          end;
          ignore (next_token c);
          let ta = c.ta and tb = c.tb in
          let is_int = int_token c in
          let a = c.value and tokens = ref 1 in
          while next_token c do
            incr tokens
          done;
          if !tokens > 1 then
            record ~line:c.line Diag.Bad_token
              "expected one module weight, got %d tokens" !tokens
          else if not is_int then
            record ~line:c.line Diag.Bad_token
              "module %d: expected integer area, got %S" v
              (String.sub s ta (tb - ta))
          else if a > 0 then areas.(v) <- a
          else
            record ~line:c.line Diag.Bad_area
              "module %d has area %d (clamped to 1)" v a
        done
      with Exit -> ()
    end;
    let diags = List.rev !diags in
    if List.exists (fun d -> d.Diag.severity = Diag.Error) diags then Error diags
    else
      Ok
        {
          hypergraph =
            Hypergraph.of_csr ~name ~areas
              ~net_offsets:(Array.sub offsets 0 (!kept + 1))
              ~net_pins:(Array.sub !pins 0 !top)
              ~net_weights:(Array.sub weights 0 !kept)
              ();
          warnings = diags;
        }
  with Fatal d -> Error (List.rev (d :: !diags))

let parse_file ~mode path =
  let name = Filename.remove_extension (Filename.basename path) in
  match In_channel.with_open_text path In_channel.input_all with
  | s -> parse_string ~name ~mode s
  | exception Sys_error msg -> Error [ Diag.of_sys_error ~source:path msg ]

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
