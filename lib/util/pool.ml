(* A minimal fork-join domain pool.  Workers block on a condition variable
   between jobs; a job is a closure every participant (workers and the
   caller) runs until an atomic chunk counter is exhausted.  Determinism
   comes from writing results at input indices, never from scheduling. *)

type t = {
  size : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable epoch : int; (* bumped per job; workers wait for a new epoch *)
  mutable job : (int -> unit) option; (* argument is the participant slot *)
  mutable pending : int; (* workers still running the current job *)
  mutable stopping : bool;
  mutable error : exn option;
  mutable domains : unit Domain.t list;
}

let size t = t.size

let record_error t exn =
  Mutex.lock t.mutex;
  if t.error = None then t.error <- Some exn;
  Mutex.unlock t.mutex

let rec worker_loop t ~slot last_epoch =
  Mutex.lock t.mutex;
  while (not t.stopping) && t.epoch = last_epoch do
    Condition.wait t.work_ready t.mutex
  done;
  if t.stopping then Mutex.unlock t.mutex
  else begin
    let epoch = t.epoch in
    let job = Option.get t.job in
    Mutex.unlock t.mutex;
    (try job slot with exn -> record_error t exn);
    Mutex.lock t.mutex;
    t.pending <- t.pending - 1;
    if t.pending = 0 then Condition.broadcast t.work_done;
    Mutex.unlock t.mutex;
    worker_loop t ~slot epoch
  end

let create ~jobs =
  let size = Stdlib.max 1 jobs in
  let t =
    {
      size;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      epoch = 0;
      job = None;
      pending = 0;
      stopping = false;
      error = None;
      domains = [];
    }
  in
  t.domains <-
    List.init (size - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t ~slot:(i + 1) 0));
  t

let shutdown t =
  Mutex.lock t.mutex;
  if t.job <> None then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.shutdown: pool is busy"
  end;
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Run [job] on every participant; the caller is one of them.  Blocks until
   all workers have finished, then re-raises the first recorded exception. *)
let run_job t job =
  if t.size = 1 then job 0
  else begin
    let t0 = Probe.begin_span () in
    if Probe.recording () then Probe.add "pool.jobs" 1;
    Mutex.lock t.mutex;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.run: pool is shut down"
    end;
    t.job <- Some job;
    t.pending <- t.size - 1;
    t.epoch <- t.epoch + 1;
    t.error <- None;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    (try job 0 with exn -> record_error t exn);
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.work_done t.mutex
    done;
    t.job <- None;
    let err = t.error in
    t.error <- None;
    (* wake anyone blocked in [await_idle] (drain paths, the at_exit join) *)
    Condition.broadcast t.work_done;
    Mutex.unlock t.mutex;
    if t0 <> 0 then
      Probe.end_span ~cat:"pool" ~name:"pool/job" ~t0
        ~args:[ ("participants", t.size) ];
    match err with Some exn -> raise exn | None -> ()
  end

(* Deterministic chunking: chunk boundaries are a pure function of the work
   size [n] — never of the pool size — so any algorithm that aggregates
   per-chunk results in chunk order produces output independent of [--jobs].
   The floor of 64 amortises the atomic fetch per chunk; the 64-way split
   keeps enough chunks in flight to balance uneven work at any realistic
   pool size. *)
let chunk_size ~n = if n <= 0 then 1 else Stdlib.max 64 ((n + 63) / 64)

let chunk_bounds ~n =
  if n <= 0 then [||]
  else begin
    let cs = chunk_size ~n in
    let nchunks = (n + cs - 1) / cs in
    Array.init nchunks (fun c -> (c * cs, Stdlib.min n ((c + 1) * cs)))
  end

(* The one work loop.  Participants take chunks [c * len, min n ((c + 1) *
   len)) off an atomic counter until none are left; the output never
   depends on which participant ran a chunk.  Queue occupancy and chunking
   choices are recorded per call, and each chunk gets a span and a
   duration sample, all through {!Probe}: a build without the obs layer
   (or with tracing/metrics off) pays one function-reference call per
   chunk. *)
let run_chunks t ~n ~len ~body =
  if n > 0 then begin
    let nchunks = (n + len - 1) / len in
    if t.size = 1 || nchunks = 1 then
      for c = 0 to nchunks - 1 do
        body ~slot:0 ~lo:(c * len) ~hi:(Stdlib.min n ((c + 1) * len))
      done
    else begin
      if Probe.recording () then begin
        Probe.add "pool.parallel_chunks" 1;
        Probe.sample "pool.queue_depth" nchunks;
        Probe.sample "pool.chunk_size" len
      end;
      let next = Atomic.make 0 in
      (* Shared cancellation flag: the first chunk whose body raises flips
         it, and every participant (including the raiser's siblings
         mid-job) stops taking chunks instead of grinding through the rest
         of the range.  The exception itself still propagates through
         [run_job]'s error slot. *)
      let cancelled = Atomic.make false in
      run_job t (fun slot ->
          let continue = ref true in
          while !continue && not (Atomic.get cancelled) do
            let c = Atomic.fetch_and_add next 1 in
            if c >= nchunks then continue := false
            else begin
              let lo = c * len and hi = Stdlib.min n ((c + 1) * len) in
              let t0 = Probe.begin_span () in
              if Probe.recording () then Probe.add "pool.chunks" 1;
              try
                body ~slot ~lo ~hi;
                if t0 <> 0 then
                  Probe.end_span ~cat:"pool" ~name:"pool/chunk" ~t0
                    ~args:[ ("lo", lo); ("hi", hi) ]
              with exn ->
                Atomic.set cancelled true;
                raise exn
            end
          done)
    end
  end

let parallel_chunks t ~n ~body = run_chunks t ~n ~len:(chunk_size ~n) ~body

(* One element per chunk: a map's items are whole runs or starts, far
   coarser than the index ranges [parallel_chunks] batches. *)
let map t f a =
  let n = Array.length a in
  let out = Array.make n None in
  run_chunks t ~n ~len:1 ~body:(fun ~slot:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        out.(i) <- Some (f a.(i))
      done);
  Array.map Option.get out

let shared = ref None

(* Wait until no job is in flight.  [patience] bounds the wait in seconds
   ([None] waits indefinitely); returns whether the pool is idle.  Polling
   (rather than a bare condition wait) is deliberate for the bounded case:
   OCaml's [Condition] has no timed wait, and the at_exit caller must not
   hang process teardown when the in-flight job can never finish — e.g. an
   [exit] raised from a signal handler that interrupted [run_job] on this
   very domain, leaving the job-clearing code unreachable below us. *)
let await_idle ?patience t =
  let deadline =
    Option.map (fun s -> Clock.now_ns () + int_of_float (s *. 1e9)) patience
  in
  let rec loop () =
    Mutex.lock t.mutex;
    let idle = t.job = None in
    Mutex.unlock t.mutex;
    if idle then true
    else
      match deadline with
      | Some d when Clock.now_ns () >= d -> false
      | Some _ | None ->
          Unix.sleepf 0.001;
          loop ()
  in
  loop ()

(* Join the shared pool's domains at process exit so a program that only
   ever used [get] terminates cleanly instead of leaking blocked domains.
   Exit may arrive while a job is mid-flight (SIGTERM during a request):
   give the job a bounded chance to complete so the workers can be joined
   rather than leaked.  A server's drain path should already have called
   [drain_shared], making this hook instant; the patience is the backstop
   for exits that skipped the drain. *)
let at_exit_registered = ref false

let register_shared_at_exit () =
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit (fun () ->
        match !shared with
        | Some t when not t.stopping ->
            if await_idle ~patience:2.0 t then (try shutdown t with _ -> ())
        | Some _ | None -> ())
  end

let drain_shared () =
  match !shared with
  | None -> ()
  | Some t ->
      if not t.stopping then begin
        ignore (await_idle t : bool);
        shutdown t
      end;
      shared := None

let get ~jobs =
  let jobs = Stdlib.max 1 jobs in
  match !shared with
  | Some t when t.size = jobs && not t.stopping -> t
  | prev ->
      (match prev with Some t -> shutdown t | None -> ());
      register_shared_at_exit ();
      let t = create ~jobs in
      shared := Some t;
      t

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
