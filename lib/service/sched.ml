type problem =
  [ `Anf of Anf.Poly.t list
  | `Cnf of Cnf.Formula.t * (int list * bool) list ]

type state = Queued | Running | Done | Failed | Cancelled

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

type job = {
  id : int;
  client : string;
  submit : Protocol.submit;
  problem : problem;
  cache_key : string option;
  mutable state : state;
  mutable budget : Harness.Budget.t option;
  mutable cancel_requested : bool;
  mutable summary : Protocol.summary option;
  mutable error : string option;
}

type t = {
  m : Mutex.t;
  work_cv : Condition.t;  (** workers sleep here *)
  done_cv : Condition.t;  (** awaiters sleep here *)
  queues : (string, job Queue.t) Hashtbl.t;
  ring : string Queue.t;
      (** round-robin ring: each client with queued work appears once *)
  in_ring : (string, unit) Hashtbl.t;
  running : (string, int) Hashtbl.t;
  jobs : (int, job) Hashtbl.t;
  delivered : int Queue.t;
      (** finished jobs in [jobs] whose outcome went out in the submit
          reply (cache hits, [wait] jobs), oldest first *)
  undelivered : int Queue.t;
      (** finished [wait = false] jobs in [jobs], which only {!find}
          reports, oldest first *)
  mutable next_id : int;
  mutable depth : int;
  mutable n_running : int;
  mutable n_submitted : int;
  mutable n_done : int;
  mutable n_failed : int;
  mutable n_cancelled : int;
  mutable stopping : bool;
}

let create () =
  {
    m = Mutex.create ();
    work_cv = Condition.create ();
    done_cv = Condition.create ();
    queues = Hashtbl.create 16;
    ring = Queue.create ();
    in_ring = Hashtbl.create 16;
    running = Hashtbl.create 16;
    jobs = Hashtbl.create 64;
    delivered = Queue.create ();
    undelivered = Queue.create ();
    next_id = 0;
    depth = 0;
    n_running = 0;
    n_submitted = 0;
    n_done = 0;
    n_failed = 0;
    n_cancelled = 0;
    stopping = false;
  }

let finished_capacity = 1024

(* Under the lock, once [job] is terminal: past [finished_capacity]
   finished jobs, forget the oldest, so a long-lived daemon keeps a fixed
   number of requests' texts, problems and summaries.  Jobs whose outcome
   the submitter already has go first, so other clients' cache hits do not
   erase an async result before it is polled. *)
let retire t ~delivered job =
  Queue.push job.id (if delivered then t.delivered else t.undelivered);
  if Queue.length t.delivered + Queue.length t.undelivered > finished_capacity then
    Hashtbl.remove t.jobs
      (Queue.pop (if Queue.is_empty t.delivered then t.undelivered else t.delivered))

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let fresh_job t ~client ~cache_key ~problem ~state submit =
  t.next_id <- t.next_id + 1;
  let job =
    {
      id = t.next_id;
      client;
      submit;
      problem;
      cache_key;
      state;
      budget = None;
      cancel_requested = false;
      summary = None;
      error = None;
    }
  in
  Hashtbl.replace t.jobs job.id job;
  t.n_submitted <- t.n_submitted + 1;
  job

let submit t ~client ?cache_key ~problem sub =
  locked t @@ fun () ->
  let job = fresh_job t ~client ~cache_key ~problem ~state:Queued sub in
  let q =
    match Hashtbl.find_opt t.queues client with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace t.queues client q;
        q
  in
  Queue.push job q;
  t.depth <- t.depth + 1;
  if not (Hashtbl.mem t.in_ring client) then begin
    Hashtbl.replace t.in_ring client ();
    Queue.push client t.ring
  end;
  Condition.signal t.work_cv;
  job

let add_completed t ~client ~problem sub summary =
  locked t @@ fun () ->
  let job = fresh_job t ~client ~cache_key:None ~problem ~state:Done sub in
  job.summary <- Some summary;
  t.n_done <- t.n_done + 1;
  retire t ~delivered:true job;
  job

let find t id = locked t @@ fun () -> Hashtbl.find_opt t.jobs id

(* Pop the next [Queued] job of [client], dropping cancelled ones (their
   terminal bookkeeping happened at cancel time). *)
let rec pop_runnable q =
  match Queue.take_opt q with
  | None -> None
  | Some job when job.state = Queued -> Some job
  | Some _ -> pop_runnable q

let rec next t =
  Mutex.lock t.m;
  let result =
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) @@ fun () ->
    if t.stopping then `Stop
    else
      match Queue.take_opt t.ring with
      | None ->
          Condition.wait t.work_cv t.m;
          `Retry
      | Some client -> (
          let q = Hashtbl.find t.queues client in
          let job = pop_runnable q in
          if Queue.is_empty q then Hashtbl.remove t.in_ring client
          else Queue.push client t.ring;
          match job with
          | None -> `Retry
          | Some job ->
              job.state <- Running;
              t.depth <- t.depth - 1;
              t.n_running <- t.n_running + 1;
              Hashtbl.replace t.running client
                (1 + Option.value ~default:0 (Hashtbl.find_opt t.running client));
              `Job job)
  in
  match result with `Stop -> None | `Job j -> Some j | `Retry -> next t

let finish t job result =
  locked t @@ fun () ->
  (match result with
  | `Done summary ->
      job.state <- Done;
      job.summary <- Some summary;
      t.n_done <- t.n_done + 1
  | `Failed msg ->
      job.state <- Failed;
      job.error <- Some msg;
      t.n_failed <- t.n_failed + 1);
  retire t ~delivered:job.submit.Protocol.wait job;
  t.n_running <- t.n_running - 1;
  (match Hashtbl.find_opt t.running job.client with
  | Some n when n > 1 -> Hashtbl.replace t.running job.client (n - 1)
  | Some _ | None -> Hashtbl.remove t.running job.client);
  Condition.broadcast t.done_cv

let cancel t id =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.jobs id with
  | None -> `Unknown
  | Some job -> (
      match job.state with
      | Queued ->
          job.state <- Cancelled;
          t.depth <- t.depth - 1;
          t.n_cancelled <- t.n_cancelled + 1;
          retire t ~delivered:job.submit.Protocol.wait job;
          Condition.broadcast t.done_cv;
          `Cancelled
      | Running ->
          job.cancel_requested <- true;
          (match job.budget with
          | Some b ->
              Harness.Budget.cancel_now b ~layer:"service"
                ~detail:(Printf.sprintf "job %d cancelled by client request" id)
          | None -> ());
          `Cancelling
      | Done | Failed | Cancelled -> `Finished)

let await t job =
  locked t @@ fun () ->
  while job.state = Queued || job.state = Running do
    Condition.wait t.done_cv t.m
  done

let running_of t client =
  locked t @@ fun () ->
  Option.value ~default:0 (Hashtbl.find_opt t.running client)

let queue_depth t = locked t @@ fun () -> t.depth
let running_count t = locked t @@ fun () -> t.n_running

let stats t =
  locked t @@ fun () ->
  [
    ("queue_depth", float_of_int t.depth);
    ("running", float_of_int t.n_running);
    ("submitted", float_of_int t.n_submitted);
    ("done", float_of_int t.n_done);
    ("failed", float_of_int t.n_failed);
    ("cancelled", float_of_int t.n_cancelled);
  ]

let stop t =
  locked t @@ fun () ->
  t.stopping <- true;
  Hashtbl.iter
    (fun _ q ->
      Queue.iter
        (fun job ->
          if job.state = Queued then begin
            job.state <- Cancelled;
            t.depth <- t.depth - 1;
            t.n_cancelled <- t.n_cancelled + 1;
            retire t ~delivered:job.submit.Protocol.wait job
          end)
        q)
    t.queues;
  Condition.broadcast t.work_cv;
  Condition.broadcast t.done_cv
