(* A process-global set of worker domains for long-running tasks, fed
   through one queue, plus futures joined in submission order. *)

module Cancel = struct
  type t = bool Atomic.t

  let create () = Atomic.make false
  let set t = Atomic.set t true
  let is_set t = Atomic.get t
end

exception Cancelled

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

type shared = {
  qm : Mutex.t;
  qc : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  mutable n_workers : int;
}

let rec worker_loop sh =
  Mutex.lock sh.qm;
  while Queue.is_empty sh.queue && not sh.closed do
    Condition.wait sh.qc sh.qm
  done;
  if Queue.is_empty sh.queue then Mutex.unlock sh.qm (* closed: exit *)
  else begin
    let task = Queue.pop sh.queue in
    Mutex.unlock sh.qm;
    task ();
    worker_loop sh
  end

let make_shared () =
  {
    qm = Mutex.create ();
    qc = Condition.create ();
    queue = Queue.create ();
    closed = false;
    workers = [];
    n_workers = 0;
  }

let spawn_workers sh n =
  while sh.n_workers < n do
    sh.workers <- Domain.spawn (fun () -> worker_loop sh) :: sh.workers;
    sh.n_workers <- sh.n_workers + 1
  done

let shutdown_shared sh =
  Mutex.lock sh.qm;
  sh.closed <- true;
  Condition.broadcast sh.qc;
  Mutex.unlock sh.qm;
  List.iter Domain.join sh.workers;
  sh.workers <- [];
  sh.n_workers <- 0

let submit sh fut f =
  let task () =
    (* Every pinned task is a span on the domain that runs it, so seat
       utilisation shows up as one trace track per domain. *)
    let r =
      try Done (Obs.Trace.with_span ~name:"pool.task" f) with e -> Failed e
    in
    Mutex.lock fut.fm;
    fut.state <- r;
    Condition.broadcast fut.fc;
    Mutex.unlock fut.fm
  in
  Mutex.lock sh.qm;
  Queue.push task sh.queue;
  Condition.signal sh.qc;
  Mutex.unlock sh.qm

let await fut =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.state with
    | Pending ->
        Condition.wait fut.fc fut.fm;
        wait ()
    | Done v -> Ok v
    | Failed e -> Error e
  in
  let r = wait () in
  Mutex.unlock fut.fm;
  r

(* Wrap a thunk so that a set cancellation token skips the work: the
   future still completes (with [Failed Cancelled]), so joins never block
   on abandoned tasks and no future is lost. *)
let guard cancel f =
  match cancel with
  | None -> f
  | Some tok -> fun () -> if Cancel.is_set tok then raise Cancelled else f ()

(* [pinned_inflight] counts tasks currently queued or running across all
   concurrent [run_pinned] calls; the worker set is grown to match before
   submission, so every pinned task has a dedicated domain and racing
   tasks (whose protocol is "first finisher cancels the rest") can never
   deadlock behind one another.  The set is reaped at exit so idle
   workers blocked on the condition variable cannot outlive main. *)
let pinned : shared option ref = ref None
let pinned_m = Mutex.create ()
let pinned_inflight = ref 0

let pinned_reserve n =
  Mutex.lock pinned_m;
  let sh =
    match !pinned with
    | Some sh -> sh
    | None ->
        let sh = make_shared () in
        pinned := Some sh;
        Stdlib.at_exit (fun () -> shutdown_shared sh);
        sh
  in
  pinned_inflight := !pinned_inflight + n;
  spawn_workers sh !pinned_inflight;
  Mutex.unlock pinned_m;
  sh

let pinned_release n =
  Mutex.lock pinned_m;
  pinned_inflight := !pinned_inflight - n;
  Mutex.unlock pinned_m

let run_pinned ?cancel thunks =
  match thunks with
  | [] -> []
  | [ f ] -> [ (try Ok ((guard cancel f) ()) with e -> Error e) ]
  | _ ->
      (* the caller runs the first thunk inline (it is a full participant
         in the race); the rest get dedicated pinned domains *)
      let tasks = Array.of_list thunks in
      let n = Array.length tasks in
      let sh = pinned_reserve (n - 1) in
      Fun.protect
        ~finally:(fun () -> pinned_release (n - 1))
        (fun () ->
          let futs =
            Array.init (n - 1) (fun i ->
                let fut =
                  { fm = Mutex.create (); fc = Condition.create (); state = Pending }
                in
                submit sh fut (guard cancel tasks.(i + 1));
                fut)
          in
          let first = try Ok ((guard cancel tasks.(0)) ()) with e -> Error e in
          let out = Array.make n first in
          (* join every future before returning, so no task is still
             mutating caller-owned state when control returns *)
          for i = 0 to n - 2 do
            out.(i + 1) <- await futs.(i)
          done;
          Array.to_list out)

(* OCaml 5 starts at most 128 domains; [max_width - 1] pinned seats per
   caller plus the main domain stay below that. *)
let domain_limit = 128
let max_width = 64
