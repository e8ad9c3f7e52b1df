(** The multi-tenant solve daemon.

    One {!start} binds a Unix-domain socket and spins up an accepter
    thread (one handler thread per connection, I/O only) and [workers]
    worker {e domains} (compute).  Jobs flow connection → {!Sched} →
    worker → driver; replies flow back over the same connection.

    Tenancy model:
    - {b fair share}: each job's requested ceilings are clamped under the
      per-client ceiling sliced by the client's number of concurrently
      running jobs ({!Harness.Budget.slice_limits}); a client tripping
      its slice gets a structured "degraded" summary — never a dropped
      connection — and other clients' budgets are untouched.
    - {b encoding cache}: canonical-digest keyed ({!Cache}); only
      replay-sound results are stored.
    - {b session pinning}: each client owns one {!Bosphorus.Driver.Session}
      reused when the new input is compatible (superset rule), checked
      out under a lock so concurrent same-client jobs run cold instead of
      racing on the pinned solver.

    Robustness: malformed, truncated or oversized frames produce
    structured error replies (or a quiet connection close on EOF); worker
    exceptions fail only their own job.  Shutdown is graceful — running
    jobs finish, queued jobs are cancelled, workers and the accepter are
    joined, the socket is unlinked. *)

type config = {
  socket_path : string;
  workers : int;  (** worker domains executing solve jobs *)
  base_config : Bosphorus.Config.t;
      (** driver configuration; its ceiling fields are ignored — budgets
          are built by the daemon from [per_client] and request limits *)
  per_client : Harness.Budget.limits;  (** fair-share ceiling per client *)
  max_frame : int;  (** request frames above this are refused (drained) *)
  cache_capacity : int;
}

val default_config : socket_path:string -> config

(** Domains a running daemon uses at most: [workers * P + J] for
    portfolio width [P] and kernel-pool width [J] (each at least 1) — the
    main domain, [workers] worker domains, [J - 1] pool workers and
    [workers * (P - 1)] pinned portfolio seats. *)
val domains_needed : config -> int

(** [Error] when [workers < 1] or {!domains_needed} exceeds
    {!Runtime.Pool.domain_limit}. *)
val check_config : config -> (unit, string) result

type t

(** Raises [Invalid_argument] when {!check_config} fails, before binding
    the socket or starting any domain. *)
val start : config -> t
val socket_path : t -> string

(** Flag the daemon to stop and wake the accepter; returns immediately. *)
val request_stop : t -> unit

(** Block until a stop is requested (e.g. a [shutdown] op), then join
    workers and the accepter and unlink the socket.  Idempotent. *)
val wait : t -> unit

(** {!request_stop} + {!wait}. *)
val stop : t -> unit

val stats : t -> (string * float) list
