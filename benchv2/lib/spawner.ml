(* A small process that starts the ops' mlpart children.  A child's
   ru_maxrss counts the peak RSS of the process that spawned it, which
   the kernel carries across exec.  Spawned straight from the benchmark,
   whose heap holds every netlist for the checks, a child would report
   the benchmark's peak when that is the larger.  So the benchmark forks
   this spawner before its heap grows, and runs every op through it. *)

type t = { pid : int; requests : out_channel; replies : in_channel }

type request = { prog : string; args : string list; stdout : string; stderr : string }

(* Fork the spawner; call before any domain is spawned. *)
let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close rep_r;
      let ic = Unix.in_channel_of_descr req_r in
      let oc = Unix.out_channel_of_descr rep_w in
      (try
         while true do
           let r : request = input_value ic in
           let reply : (Proc.exit, string) result =
             match Proc.run r.prog r.args ~stdout:r.stdout ~stderr:r.stderr with
             | exit -> Ok exit
             | exception e -> Error (Printexc.to_string e)
           in
           Marshal.to_channel oc reply [];
           flush oc
         done
       with End_of_file -> ());
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close rep_w;
      {
        pid;
        requests = Unix.out_channel_of_descr req_w;
        replies = Unix.in_channel_of_descr rep_r;
      }

(* [Proc.run], from the spawner. *)
let run t prog args ~stdout ~stderr =
  Marshal.to_channel t.requests { prog; args; stdout; stderr } [];
  flush t.requests;
  match (input_value t.replies : (Proc.exit, string) result) with
  | Ok exit -> exit
  | Error e -> failwith (Printf.sprintf "spawning %s: %s" prog e)

(* End the spawner and wait for it. *)
let stop t =
  close_out t.requests;
  close_in t.replies;
  ignore (Proc.wait t.pid)
