module Json = Mlpart_obs.Json
module P = Protocol

type addr = Unix_path of string | Tcp of string * int

let addr_of_string s =
  match String.index_opt s ':' with
  | Some 3 when String.sub s 0 4 = "tcp:" -> (
      let rest = String.sub s 4 (String.length s - 4) in
      match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "tcp address %S wants HOST:PORT" s)
      | Some i -> (
          let host = String.sub rest 0 i in
          let port = String.sub rest (i + 1) (String.length rest - i - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
          | Some _ | None -> Error (Printf.sprintf "bad port in %S" s)))
  | _ -> Ok (Unix_path s)

let addr_to_string = function
  | Unix_path p -> p
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | a -> a
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> failwith ("cannot resolve " ^ host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found -> failwith ("cannot resolve " ^ host))

let sockaddr_of = function
  | Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (resolve_host host, port))

let listen_socket addr =
  let domain, sa = sockaddr_of addr in
  (match addr with
  | Unix_path path when Sys.file_exists path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_path _ -> ());
  Unix.bind fd sa;
  Unix.listen fd 64;
  fd

(* One connection: read a line, run it through the engine, write the
   response — strictly in order.  A [drop] response (injected disconnect)
   severs the connection instead of answering.  A request counts against
   the budget only once its reply is flushed (or its connection dropped):
   reaching the budget shuts down every open connection, which must not
   sever a reply still being written. *)
let handle_connection engine fd ~count_request =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line when String.trim line = "" -> loop ()
    | line ->
        let resp =
          match Engine.submit_line engine line with
          | Engine.Reply r -> r
          | Engine.Queued ticket -> Engine.wait ticket
        in
        if resp.P.drop then begin
          (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
          count_request ()
        end
        else begin
          match
            output_string oc (P.response_to_line resp);
            output_char oc '\n';
            flush oc
          with
          | () ->
              count_request ();
              loop ()
          | exception Sys_error _ -> count_request ()
        end
  in
  loop ();
  (try flush oc with Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let run ?max_requests ?stats_path engine addr =
  let listener = listen_socket addr in
  let stopping = Atomic.make false in
  (* self-pipe: signal handlers and the request budget wake the select
     loop without racing close() against a blocked accept() *)
  let stop_r, stop_w = Unix.pipe () in
  let request_stop () =
    if not (Atomic.exchange stopping true) then
      try ignore (Unix.write stop_w (Bytes.of_string "x") 0 1 : int)
      with Unix.Unix_error _ -> ()
  in
  let served = Atomic.make 0 in
  let count_request () =
    match max_requests with
    | Some n -> if Atomic.fetch_and_add served 1 + 1 >= n then request_stop ()
    | None -> ()
  in
  let previous_handlers =
    List.map
      (fun s ->
        (s, Sys.signal s (Sys.Signal_handle (fun _ -> request_stop ()))))
      [ Sys.sigterm; Sys.sigint ]
  in
  let previous_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let conns_m = Mutex.create () in
  let conns : (int, Unix.file_descr) Hashtbl.t = Hashtbl.create 16 in
  let threads = ref [] in
  let next_conn = ref 0 in
  let accept_loop () =
    while not (Atomic.get stopping) do
      match Unix.select [ listener; stop_r ] [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          if (not (List.mem stop_r ready)) && List.mem listener ready then begin
            match Unix.accept listener with
            | exception Unix.Unix_error _ -> ()
            | fd, _ ->
                let id = !next_conn in
                incr next_conn;
                Mutex.lock conns_m;
                Hashtbl.replace conns id fd;
                Mutex.unlock conns_m;
                let th =
                  Thread.create
                    (fun () ->
                      handle_connection engine fd ~count_request;
                      Mutex.lock conns_m;
                      Hashtbl.remove conns id;
                      Mutex.unlock conns_m)
                    ()
                in
                threads := th :: !threads
          end
    done
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (s, h) -> Sys.set_signal s h) previous_handlers;
      Sys.set_signal Sys.sigpipe previous_pipe;
      (try Unix.close stop_r with Unix.Unix_error _ -> ());
      (try Unix.close stop_w with Unix.Unix_error _ -> ());
      match addr with
      | Unix_path path -> (
          try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
      | Tcp _ -> ())
    (fun () ->
      accept_loop ();
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (* graceful degradation under SIGTERM: finish everything admitted,
         reject the rest, then leave *)
      Engine.drain engine;
      Mutex.lock conns_m;
      let open_fds = Hashtbl.fold (fun _ fd acc -> fd :: acc) conns [] in
      Mutex.unlock conns_m;
      List.iter
        (fun fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        open_fds;
      List.iter Thread.join !threads;
      match stats_path with
      | Some path ->
          let out = open_out path in
          output_string out (Json.to_string (Engine.stats_json engine));
          output_char out '\n';
          close_out out
      | None -> ())

(* ---- client side ---- *)

let with_connection addr f =
  let domain, sa = sockaddr_of addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd sa with
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  | () ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> f ic oc)

let roundtrip ic oc line =
  match
    output_string oc line;
    output_char oc '\n';
    flush oc
  with
  | exception Sys_error msg -> Error ("connection lost: " ^ msg)
  | () -> (
      match input_line ic with
      | exception End_of_file -> Error "connection severed before the reply"
      | exception Sys_error msg -> Error ("connection lost: " ^ msg)
      | reply -> P.response_of_line reply)
