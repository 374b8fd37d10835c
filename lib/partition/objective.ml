module H = Mlpart_hypergraph.Hypergraph

type report = {
  parts : int;
  net_cut : int;
  sum_degrees : int;
  absorbed : int;
  part_areas : int array;
  largest_part : int;
  smallest_part : int;
}

let evaluate h side =
  let n = H.num_modules h in
  if Array.length side <> n then
    invalid_arg "Objective.evaluate: assignment length mismatch";
  Array.iteri
    (fun v p ->
      if p < 0 then
        invalid_arg (Printf.sprintf "Objective.evaluate: part of %d is %d" v p))
    side;
  let parts =
    Array.fold_left (fun acc p -> if p > acc then p else acc) 0 side + 1
  in
  let kp = Kpartition.create h ~k:(Stdlib.max 2 parts) side in
  let part_areas = Array.init parts (Kpartition.area_of_part kp) in
  let absorbed =
    let total = ref 0 in
    for e = 0 to H.num_nets h - 1 do
      if Kpartition.spans kp e = 1 then total := !total + H.net_weight h e
    done;
    !total
  in
  {
    parts;
    net_cut = Kpartition.cut kp;
    sum_degrees = Kpartition.sum_degrees kp;
    absorbed;
    part_areas;
    largest_part =
      Array.fold_left (fun acc a -> if a > acc then a else acc) 0 part_areas;
    smallest_part =
      Array.fold_left
        (fun acc a -> if a < acc then a else acc)
        max_int part_areas;
  }

let pp ppf r =
  Format.fprintf ppf "parts:        %d@." r.parts;
  Format.fprintf ppf "net cut:      %d@." r.net_cut;
  Format.fprintf ppf "sum degrees:  %d@." r.sum_degrees;
  Format.fprintf ppf "absorbed:     %d@." r.absorbed;
  Format.fprintf ppf "part areas:   %s@."
    (String.concat " " (Array.to_list (Array.map string_of_int r.part_areas)))

module Diag = Mlpart_util.Diag

let read_assignment path =
  match
    In_channel.with_open_text path (fun ic ->
        let rec go acc line =
          match In_channel.input_line ic with
          | None -> List.rev acc
          | Some raw ->
              let raw = String.trim raw in
              if raw = "" then go acc (line + 1)
              else begin
                match int_of_string_opt raw with
                | Some v -> go (v :: acc) (line + 1)
                | None ->
                    Diag.fail ~line ~source:path Diag.Bad_part
                      "expected integer part id, got %S" raw
              end
        in
        Array.of_list (go [] 1))
  with
  | side -> side
  | exception Sys_error msg ->
      raise (Diag.Mlpart_error [ Diag.of_sys_error ~source:path msg ])

let write_assignment path side =
  let buf = Buffer.create (2 * Array.length side) in
  Array.iter
    (fun p ->
      Buffer.add_string buf (string_of_int p);
      Buffer.add_char buf '\n')
    side;
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf)
