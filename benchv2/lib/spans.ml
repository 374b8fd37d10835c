(* Self times from a Chrome trace-event export, as written by
   [mlpart ... --trace FILE].  Spans on one thread nest properly, so each
   thread's complete ("X") events form a forest; a span's self time is its
   duration minus the part of it that its child spans cover. *)

module Json = Mlpart_obs.Json

type span = {
  name : string;
  ts : float;  (** start, µs *)
  dur : float;  (** µs *)
  tid : int;
  args : Json.t;
}

type node = { span : span; children : node list }

let stop s = s.ts +. s.dur

let of_json j =
  let events = Option.value (Json.list_member "traceEvents" j) ~default:[] in
  let spans =
    List.filter_map
      (fun e ->
        match
          ( Json.str_member "ph" e,
            Json.str_member "name" e,
            Json.float_member "ts" e,
            Json.float_member "dur" e )
        with
        | Some "X", Some name, Some ts, Some dur ->
            Some
              {
                name;
                ts;
                dur;
                tid = Option.value (Json.int_member "tid" e) ~default:0;
                args = Option.value (Json.member "args" e) ~default:Json.Null;
              }
        | _ -> None)
      events
  in
  let dropped =
    Option.bind (Json.member "otherData" j) (Json.int_member "dropped")
  in
  (spans, Option.value dropped ~default:0)

(* Timestamps are rendered in µs with three decimals, so a child may
   appear to end a rounding step after its parent. *)
let eps = 0.002

let forest spans =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value (Hashtbl.find_opt by_tid s.tid) ~default:[]))
    spans;
  let build spans =
    let spans =
      List.sort
        (fun a b ->
          let c = Float.compare a.ts b.ts in
          if c <> 0 then c else Float.compare b.dur a.dur)
        spans
    in
    (* [stack] holds the open spans with their children so far, innermost
       first; closing a span attaches it to the span below it. *)
    let rec close_until t stack roots =
      match stack with
      | (s, kids) :: rest when stop s < t +. eps -> (
          let node = { span = s; children = List.rev kids } in
          match rest with
          | (p, pkids) :: rest' ->
              close_until t ((p, node :: pkids) :: rest') roots
          | [] -> close_until t [] (node :: roots))
      | _ -> (stack, roots)
    in
    let stack, roots =
      List.fold_left
        (fun (stack, roots) s ->
          let stack, roots = close_until s.ts stack roots in
          ((s, []) :: stack, roots))
        ([], []) spans
    in
    let _, roots = close_until infinity stack roots in
    List.rev roots
  in
  Hashtbl.fold (fun _ spans acc -> build spans @ acc) by_tid []
  |> List.sort (fun a b -> Float.compare a.span.ts b.span.ts)

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let self_time node =
  let s = node.span in
  s.dur
  -. covered ~lo:s.ts ~hi:(stop s)
       (List.map (fun c -> (c.span.ts, stop c.span)) node.children)

(* Uninstrumented time between a root span named [after] and the next
   root named [before] on the same thread, less whatever other roots cover
   in between — e.g. n-level initial partitioning, which runs between
   [nlevel/contract] and [nlevel/uncontract] without a span of its own. *)
let gap ~after ~before roots =
  List.fold_left
    (fun acc r ->
      if r.span.name <> after then acc
      else begin
        let lo = stop r.span in
        let next =
          List.find_opt
            (fun n ->
              n.span.name = before && n.span.tid = r.span.tid && n.span.ts >= lo -. eps)
            roots
        in
        match next with
        | None -> acc
        | Some n ->
            let hi = n.span.ts in
            let others =
              List.filter_map
                (fun o ->
                  if o.span.tid = r.span.tid && o != r && o != n then
                    Some (o.span.ts, stop o.span)
                  else None)
                roots
            in
            acc +. Float.max 0. (hi -. lo -. covered ~lo ~hi others)
      end)
    0. roots
