(** A fixed-size Domain worker pool for embarrassingly parallel jobs.

    [run ~jobs f inputs] applies [f] to every element of [inputs] on up to
    [jobs] domains (the calling domain always participates, so [jobs = 4]
    spawns three) and returns one outcome per input, {e in input order}.
    Work is handed out through a single atomic counter, so scheduling is
    dynamic, but collection is by index: the result array — including the
    order of captured exceptions — is bit-identical for every [jobs] value.
    That property is what lets the bench grid, the fuzz campaigns, and the
    determinism tests assert byte-identical reports at [-j1] and [-j4].

    Per-job failures are {e captured}, not propagated: a job that raises
    yields [Error exn] in its slot and the remaining jobs still run.
    Callers that want fail-fast semantics re-raise the first [Error] in
    index order, which reproduces exactly what a sequential loop would
    have reported first.

    Jobs must not print (interleaved output would break the determinism
    guarantee) and must not share mutable state; domain-local state
    ([Domain.DLS], as used by the pipeline's fault hook and the
    interpreter's precompile cache) is safe because one domain runs one
    job at a time.

    The supervised layer is one persistent pool ({!create}): per-job
    wall-clock deadlines delivered cooperatively through a [should_stop]
    closure, detection and replacement of wedged worker domains, bounded
    retries, and quarantine — see pool.mli for the full contract.  Its
    workers outlive batches and block on a condition variable when idle;
    each resolution writes a byte to a self-pipe, so the owner [select]s
    for completions and otherwise sleeps only until the earliest wedge
    deadline.  {!run_supervised} is one batch on a private pool.  Worker
    domains keep their domain-local state across jobs and batches. *)

type 'a outcome = ('a, exn) result

(** The number of domains the runtime considers profitable on this host;
    the natural default for a [--jobs] flag. *)
let recommended_jobs () = Domain.recommended_domain_count ()

let run ~jobs ?(on_result = fun _ _ -> ()) (f : 'a -> 'b) (inputs : 'a array) :
    'b outcome array =
  let n = Array.length inputs in
  let results : 'b outcome array = Array.make n (Error Exit) in
  let work i =
    let o = try Ok (f inputs.(i)) with e -> Error e in
    results.(i) <- o;
    on_result i o
  in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then
    for i = 0 to n - 1 do
      work i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          work i;
          loop ()
        end
      in
      loop ()
    in
    let spawned = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* join even if the calling domain's share of the work (or the
       caller's [on_result]) raises: no worker domain may leak on an
       exception path *)
    Fun.protect ~finally:(fun () -> Array.iter Domain.join spawned) worker
  end;
  results

(** [run_exn] is [run] with fail-fast collection: the first failed job in
    {e index} order is re-raised (matching what a sequential loop over
    [inputs] would have reported first); otherwise the plain result array
    is returned. *)
let run_exn ~jobs f inputs =
  let outcomes = run ~jobs f inputs in
  Array.map (function Ok v -> v | Error e -> raise e) outcomes

(* ------------------------------------------------------------------ *)
(* Supervised execution                                                *)
(* ------------------------------------------------------------------ *)

type job_failure =
  | Timed_out of { elapsed : float; attempts : int }
  | Crashed of { reason : string; attempts : int }

type 'a supervised = ('a, job_failure) result

let pp_job_failure ppf = function
  | Timed_out { elapsed; attempts } ->
    Format.fprintf ppf "timed out after %.1fs (%d attempt%s)" elapsed attempts
      (if attempts = 1 then "" else "s")
  | Crashed { reason; attempts } ->
    Format.fprintf ppf "crashed: %s (%d attempt%s)" reason attempts
      (if attempts = 1 then "" else "s")

(** A job with its types erased: the pool schedules, times and retries
    tasks without knowing their input or result types. *)
type task = {
  state : int Atomic.t;
      (** the claim word: 0 = queued, [t > 0] = the attempt holding
          ticket [t] is in flight, -1 = resolved.  Whoever CASes it to -1
          owns the outcome, so a job resolves once even when its attempt
          races a cancellation. *)
  failed : int Atomic.t;  (** failed attempts so far *)
  ctl : ctl;
  exec : should_stop:(unit -> bool) -> unit -> unit;
      (** run one attempt; the returned thunk records its [Ok] value and
          fires [on_result] *)
  fail : notify:bool -> job_failure -> unit;
      (** record a final failure; [notify] fires [on_result] *)
}

(** What the tasks of one batch share. *)
and ctl = {
  pending : int Atomic.t;  (** tasks not yet resolved *)
  stopped : bool Atomic.t;  (** cancelled: no attempt may start *)
  cancel : (unit -> bool) option;
}

(** The attempt a worker is running, as the supervisor sees it. *)
type attempt = { task : task; ticket : int; started : float }

type t = {
  timeout : float option;
  retries : int;
  grace : float;
  resilience : Resilience.t option;
  lock : Mutex.t;
  nonempty : Condition.t;  (** signalled when [queue] grows or on close *)
  queue : task Queue.t;  (** under [lock] *)
  closing : bool Atomic.t;  (** set under [lock] by {!shutdown} *)
  tickets : int Atomic.t;
  outstanding : int Atomic.t;  (** submitted tasks not yet resolved *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable workers : (attempt option Atomic.t * unit Domain.t) list;
      (** the live workers and their current attempts; owner-only *)
}

type 'b batch = {
  ctl : ctl;
  tasks : task array;
  results : 'b supervised array;
}

let locked p g =
  Mutex.lock p.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.lock) g

let tick p ev =
  match p.resilience with Some r -> Resilience.tick r ev | None -> ()

let cancelled ctl =
  Atomic.get ctl.stopped
  || match ctl.cancel with Some c -> c () | None -> false

let wake_byte = Bytes.make 1 '!'

(* the pipe is non-blocking: a full pipe already holds a pending wake *)
let wake p =
  try ignore (Unix.single_write p.wake_w wake_byte 0 1 : int)
  with Unix.Unix_error _ -> ()

(** Resolve a task whose claim word the caller has just CASed to -1:
    record the outcome, then count it and wake the owner, even if
    [on_result] raises. *)
let settle p (task : task) record =
  Fun.protect record ~finally:(fun () ->
      Atomic.decr task.ctl.pending;
      Atomic.decr p.outstanding;
      wake p)

(** Fail the attempt holding ticket [t] — called once per attempt, by
    its worker or, for a wedged one, by the supervisor: count it, then
    re-queue the task while its retry budget lasts, or resolve it as
    [failure attempts].  A batch cancelled meanwhile has already resolved
    the task, and the claim CAS then fails. *)
let fail_attempt p (task : task) t ~event failure =
  let attempts = 1 + Atomic.fetch_and_add task.failed 1 in
  if attempts <= p.retries && not (cancelled task.ctl) then begin
    if Atomic.compare_and_set task.state t 0 then begin
      tick p event;
      tick p Resilience.Retry;
      locked p (fun () ->
          Queue.push task p.queue;
          Condition.signal p.nonempty)
    end
  end
  else if Atomic.compare_and_set task.state t (-1) then begin
    tick p event;
    tick p Resilience.Quarantine;
    settle p task (fun () -> task.fail ~notify:true (failure attempts))
  end

(** Run one attempt of [task] on the worker whose attempt slot is
    [busy].  [false] when the supervisor abandoned the worker meanwhile:
    the worker must exit. *)
let run_attempt p busy (task : task) =
  let t = Atomic.fetch_and_add p.tickets 1 in
  if
    Atomic.get task.ctl.stopped
    || not (Atomic.compare_and_set task.state 0 t)
  then true
  else begin
    let started = Clock.now () in
    let cur = Some { task; ticket = t; started } in
    Atomic.set busy cur;
    let timed_out = ref false in
    let should_stop () =
      Atomic.get p.closing || cancelled task.ctl
      || Atomic.get task.state <> t (* the supervisor took the job *)
      ||
      match p.timeout with
      | Some tmo when Clock.elapsed started > tmo ->
        timed_out := true;
        true
      | _ -> false
    in
    let o = try Ok (task.exec ~should_stop) with e -> Error e in
    (* whoever clears the slot first decides: losing this CAS means the
       supervisor declared the attempt wedged and already failed it, so
       the result is discarded and the worker resolves nothing more *)
    Atomic.compare_and_set busy cur None
    && begin
      (match o with
      | Ok record ->
        if Atomic.compare_and_set task.state t (-1) then settle p task record
      | Error _ when Atomic.get p.closing || cancelled task.ctl ->
        (* aborted by cancellation, not by its own deadline: release the
           claim; the batch's epilogue marks it cancelled *)
        ignore (Atomic.compare_and_set task.state t 0 : bool)
      | Error e ->
        let elapsed = Clock.elapsed started in
        let timed_out =
          !timed_out
          || match p.timeout with Some tmo -> elapsed > tmo | None -> false
        in
        fail_attempt p task t
          ~event:(if timed_out then Resilience.Timeout else Resilience.Crash)
          (fun attempts ->
            if timed_out then Timed_out { elapsed; attempts }
            else Crashed { reason = Printexc.to_string e; attempts }));
      true
    end
  end

(** A worker: take tasks until the pool closes, blocking on [nonempty]
    while the queue is empty, or until the supervisor abandons it. *)
let rec work p busy =
  let next =
    locked p (fun () ->
        while Queue.is_empty p.queue && not (Atomic.get p.closing) do
          Condition.wait p.nonempty p.lock
        done;
        if Atomic.get p.closing then None else Some (Queue.pop p.queue))
  in
  match next with
  | None -> ()
  | Some task -> if run_attempt p busy task then work p busy

let spawn_worker p =
  let busy = Atomic.make None in
  p.workers <- (busy, Domain.spawn (fun () -> work p busy)) :: p.workers

let create ~jobs ?timeout ?(retries = 1) ?(grace = 1.0) ?resilience () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let p =
    {
      timeout;
      retries;
      grace;
      resilience;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      closing = Atomic.make false;
      tickets = Atomic.make 1;
      outstanding = Atomic.make 0;
      wake_r;
      wake_w;
      workers = [];
    }
  in
  for _ = 1 to max 1 jobs do
    spawn_worker p
  done;
  p

let submit p ?cancel ?(on_result = fun _ _ -> ())
    (f : should_stop:(unit -> bool) -> 'a -> 'b) (inputs : 'a array) :
    'b batch =
  let n = Array.length inputs in
  let results : 'b supervised array =
    Array.make n (Error (Crashed { reason = "cancelled"; attempts = 0 }))
  in
  let record i o =
    results.(i) <- o;
    on_result i o
  in
  let ctl = { pending = Atomic.make n; stopped = Atomic.make false; cancel } in
  let tasks =
    Array.init n (fun i ->
        {
          state = Atomic.make 0;
          failed = Atomic.make 0;
          ctl;
          exec =
            (fun ~should_stop ->
              let v = f ~should_stop inputs.(i) in
              fun () -> record i (Ok v));
          fail =
            (fun ~notify e ->
              if notify then record i (Error e) else results.(i) <- Error e);
        })
  in
  ignore (Atomic.fetch_and_add p.outstanding n : int);
  locked p (fun () ->
      Array.iter (fun task -> Queue.push task p.queue) tasks;
      Condition.broadcast p.nonempty);
  { ctl; tasks; results }

let finished (b : _ batch) = Atomic.get b.ctl.pending = 0
let results b = b.results
let wake_fd p = p.wake_r

(** Abandon every worker whose attempt has overrun [timeout + grace]
    without returning: take its job away (retry or quarantine) and spawn
    a replacement so throughput recovers.  OCaml domains cannot be
    killed; the abandoned one finishes into the void, unjoined. *)
let sweep p =
  match p.timeout with
  | None -> ()
  | Some tmo ->
    let limit = tmo +. p.grace in
    List.iter
      (fun ((busy, _) as w) ->
        match Atomic.get busy with
        | Some a as cur ->
          let elapsed = Clock.elapsed a.started in
          if elapsed >= limit && Atomic.compare_and_set busy cur None then begin
            p.workers <- List.filter (fun w' -> w' != w) p.workers;
            fail_attempt p a.task a.ticket ~event:Resilience.Timeout
              (fun attempts -> Timed_out { elapsed; attempts });
            spawn_worker p
          end
        | None -> ())
      p.workers

let supervise p =
  let buf = Bytes.create 64 in
  let rec drain () =
    match Unix.read p.wake_r buf 0 64 with
    | 64 -> drain ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  sweep p;
  match p.timeout with
  | Some tmo when Atomic.get p.outstanding > 0 ->
    (* an attempt that starts later has a later deadline, so the
       earliest one is among the running attempts, or [limit] away *)
    let limit = tmo +. p.grace in
    let now = Clock.now () in
    let earliest =
      List.fold_left
        (fun acc (busy, _) ->
          match Atomic.get busy with
          | Some a -> Float.min acc (a.started +. limit -. now)
          | None -> acc)
        limit p.workers
    in
    Some (Float.max 0. earliest)
  | _ -> None

let shutdown p =
  locked p (fun () ->
      Atomic.set p.closing true;
      Condition.broadcast p.nonempty);
  List.iter (fun (_, d) -> Domain.join d) p.workers;
  (* abandoned workers may still be running, but one never writes to the
     pipe: it lost its slot's CAS, so it resolves nothing and exits, and
     closing cannot hand its byte to a reused descriptor number *)
  Unix.close p.wake_r;
  Unix.close p.wake_w

(** The cancellation epilogue: stop the batch and resolve every
    unresolved task as cancelled, without firing [on_result] (the work
    did not finish).  A claim that moves under the CAS is retried, so a
    task a worker claims concurrently is still marked. *)
let cancel_batch p (b : _ batch) =
  Atomic.set b.ctl.stopped true;
  Array.iter
    (fun task ->
      let rec claim () =
        let s = Atomic.get task.state in
        s <> -1 && (Atomic.compare_and_set task.state s (-1) || claim ())
      in
      if claim () then begin
        task.fail ~notify:false
          (Crashed { reason = "cancelled"; attempts = Atomic.get task.failed });
        Atomic.decr b.ctl.pending;
        Atomic.decr p.outstanding
      end)
    b.tasks

(** How long a waiter whose batch can be cancelled sleeps at most: a
    SIGINT handler may run on any domain, so the flag it sets need not
    interrupt [select].  Completions and deadlines never wait on it. *)
let cancel_check = 0.1

(** Block until every task of [b] is resolved, supervising meanwhile. *)
let wait p (b : _ batch) =
  let rec loop () =
    let deadline = supervise p in
    if not (finished b) then begin
      if (not (Atomic.get b.ctl.stopped)) && cancelled b.ctl then
        cancel_batch p b;
      if not (finished b) then begin
        let timeout =
          match b.ctl.cancel with
          | Some _ ->
            Option.fold ~none:cancel_check ~some:(Float.min cancel_check)
              deadline
          | None -> Option.value deadline ~default:(-1.) (* until a wake *)
        in
        match Unix.select [ p.wake_r ] [] [] timeout with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      end;
      loop ()
    end
  in
  loop ()

let run_supervised ~jobs ?timeout ?retries ?grace ?cancel ?resilience
    ?on_result f inputs =
  let n = Array.length inputs in
  if n = 0 then [||]
  else begin
    let p = create ~jobs:(min jobs n) ?timeout ?retries ?grace ?resilience () in
    Fun.protect
      ~finally:(fun () -> shutdown p)
      (fun () ->
        let b = submit p ?cancel ?on_result f inputs in
        wait p b;
        b.results)
  end
