(* A work queue shared by a fixed set of worker domains, plus futures
   joined in submission order.  The calling domain helps execute queued
   tasks while it waits, which both uses the caller as the jobs-th worker
   and makes nested [run] calls deadlock-free. *)

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

type t = {
  shared : shared option; (* None: sequential fallback *)
  pjobs : int;
}

let jobs t = t.pjobs

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

let sequential = { shared = None; pjobs = 1 }

(* One process-global worker set, grown on demand and reaped at exit so
   idle workers blocked on the condition variable cannot outlive main. *)
let global : shared option ref = ref None
let global_m = Mutex.create ()

let get ~jobs =
  if jobs <= 1 then sequential
  else begin
    Mutex.lock global_m;
    let sh =
      match !global with
      | Some sh -> sh
      | None ->
          let sh = make_shared () in
          global := Some sh;
          Stdlib.at_exit (fun () -> shutdown_shared sh);
          sh
    in
    spawn_workers sh (jobs - 1);
    Mutex.unlock global_m;
    { shared = Some sh; pjobs = jobs }
  end

let submit sh fut f =
  let task () =
    (* Every pooled task is a span on whichever domain executes it (a
       worker or the helping caller), so worker utilisation shows up as
       one trace track per domain. *)
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

let try_pop sh =
  Mutex.lock sh.qm;
  let task = if Queue.is_empty sh.queue then None else Some (Queue.pop sh.queue) in
  Mutex.unlock sh.qm;
  task

(* Wait for [fut], executing other queued tasks meanwhile. *)
let rec await sh fut =
  Mutex.lock fut.fm;
  match fut.state with
  | Done v ->
      Mutex.unlock fut.fm;
      Ok v
  | Failed e ->
      Mutex.unlock fut.fm;
      Error e
  | Pending -> (
      Mutex.unlock fut.fm;
      match try_pop sh with
      | Some task ->
          task ();
          await sh fut
      | None ->
          (* the queue is empty, so [fut]'s task is running on some domain
             (possibly popped between our two checks): block until done *)
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
          r)

(* Wrap a thunk so that a set cancellation token skips the work: the
   future still completes (with [Failed Cancelled]), so joins never block
   on abandoned tasks and no future is lost. *)
let guard cancel f =
  match cancel with
  | None -> f
  | Some tok -> fun () -> if Cancel.is_set tok then raise Cancelled else f ()

(* One result per thunk, in submission order; every future is joined. *)
let run_results ?cancel t thunks =
  match t.shared with
  | None ->
      List.map
        (fun f -> try Ok ((guard cancel f) ()) with e -> Error e)
        thunks
  | Some sh ->
      (* preallocated result slots, filled in submission order — the merge
         path never conses an accumulator list per chunk *)
      let tasks = Array.of_list thunks in
      let n = Array.length tasks in
      if n = 0 then []
      else begin
        let futs =
          Array.init n (fun i ->
              let fut =
                { fm = Mutex.create (); fc = Condition.create (); state = Pending }
              in
              submit sh fut (guard cancel tasks.(i));
              fut)
        in
        let out = Array.make n (Error Cancelled) in
        (* join everything before returning, so no task is still mutating
           caller-owned state when control returns *)
        for i = 0 to n - 1 do
          out.(i) <- await sh futs.(i)
        done;
        Array.to_list out
      end

let run ?cancel t thunks =
  match (t.shared, cancel, thunks) with
  | None, None, _ -> List.map (fun f -> f ()) thunks
  | Some _, None, [] -> []
  | Some _, None, [ f ] -> [ f () ]
  | _ ->
      List.map
        (function Ok v -> v | Error e -> raise e)
        (run_results ?cancel t thunks)

(* ------------------------------------------------------------------ *)
(* Pinned long-running tasks                                           *)
(* ------------------------------------------------------------------ *)

(* A second process-global worker set, reserved for long-running tasks
   (portfolio SAT workers, background services).  Keeping it separate
   from [global] means a task that occupies its domain for a whole solve
   cannot sit in front of queued kernel chunks: the work queue keeps its
   short-task latency, and pinned tasks keep their dedicated domains.

   [pinned_inflight] counts tasks currently queued or running across all
   concurrent [run_pinned] calls; the worker set is grown to match before
   submission, so every pinned task has a dedicated domain and racing
   tasks (whose protocol is "first finisher cancels the rest") can never
   deadlock behind one another. *)
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
          for i = 0 to n - 2 do
            (* plain join, no queue helping: stealing another caller's
               pinned long task here would pin *us* for its duration *)
            let fut = futs.(i) in
            Mutex.lock fut.fm;
            let rec wait () =
              match fut.state with
              | Pending ->
                  Condition.wait fut.fc fut.fm;
                  wait ()
              | Done v -> Ok v
              | Failed e -> Error e
            in
            out.(i + 1) <- wait ();
            Mutex.unlock fut.fm
          done;
          Array.to_list out)

let chunk_ranges ~chunks ~lo ~hi =
  let n = hi - lo in
  if n <= 0 then []
  else begin
    let c = max 1 (min chunks n) in
    let base = n / c and extra = n mod c in
    List.init c (fun i ->
        let start = lo + (i * base) + min i extra in
        let len = base + if i < extra then 1 else 0 in
        (start, start + len))
  end

let parallel_for t ~lo ~hi f =
  match t.shared with
  | None -> if hi > lo then f lo hi
  | Some _ ->
      ignore
        (run t
           (List.map
              (fun (lo', hi') () -> f lo' hi')
              (chunk_ranges ~chunks:t.pjobs ~lo ~hi)))

(* Chunk results land directly in one preallocated output array (slot 0 is
   computed inline to seed it): each slot is written by exactly one task
   and the joins in [run] order those writes before the caller reads. *)
let map_list t f xs =
  match (t.shared, xs) with
  | None, _ | _, [] -> List.map f xs
  | Some _, x0 :: _ ->
      let xs = Array.of_list xs in
      let n = Array.length xs in
      let out = Array.make n (f x0) in
      ignore
        (run t
           (List.map
              (fun (lo, hi) () ->
                for i = lo to hi - 1 do
                  out.(i) <- f xs.(i)
                done)
              (chunk_ranges ~chunks:t.pjobs ~lo:1 ~hi:n)));
      Array.to_list out

(* OCaml 5 starts at most 128 domains; two sets of [max_width - 1]
   workers (kernel pool and pinned seats) plus the main domain stay below
   that. *)
let domain_limit = 128
let max_width = 64

let default_jobs () =
  let n =
    match Sys.getenv_opt "BOSPHORUS_JOBS" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> n
        | Some _ | None -> Domain.recommended_domain_count ())
    | None -> Domain.recommended_domain_count ()
  in
  Int.min max_width n
