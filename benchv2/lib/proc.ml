(* Child processes of the benchmark, timed with the monotonic clock that
   [Mlpart_obs.Trace] uses. *)

external wait4 : int -> int * int = "benchv2_wait4"

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let open_out_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

(* Start [prog args] with stdout and stderr redirected to files. *)
let spawn prog args ~stdout ~stderr =
  let out = open_out_fd stdout and err = open_out_fd stderr in
  Fun.protect
    ~finally:(fun () ->
      Unix.close out;
      Unix.close err)
    (fun () ->
      Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out err)

type exit = { code : int; ms : float; rss_kb : int }

(* Run [prog args] to completion; [ms] spans process creation to reaping. *)
let run prog args ~stdout ~stderr =
  let out = open_out_fd stdout and err = open_out_fd stderr in
  let t0 = now_ms () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  let code, rss_kb = wait4 pid in
  { code; ms = now_ms () -. t0; rss_kb }

(* Peak resident set size of a live process, in KiB ([VmHWM]). *)
let vm_hwm_kb pid =
  let status = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text status In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
          | _ -> None)
        (String.split_on_char '\n' text)
      |> Option.value ~default:0

(* Wait for a child to end; its exit code. *)
let wait pid = fst (wait4 pid)

let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait pid
