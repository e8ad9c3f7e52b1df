(** Dedicated OCaml 5 domains for long-running tasks, plus the
    cancellation token that stops them.

    The portfolio's racing SAT seats ({!Sat.Portfolio}) run here, on a
    process-global set of pinned worker domains, grown on demand so every
    task in flight has its own domain and reaped at exit.  Every
    elimination kernel runs on its calling domain; the other place that
    runs code on more than one domain is the solve daemon's worker set
    ([Service.Daemon]).  See DESIGN.md, "Parallel runtime". *)

(** Cancellation tokens: a single atomic flag shared between the party
    that decides to abort (e.g. a tripped {!Harness.Budget}) and the tasks
    that should stop.  Setting the token never interrupts a running task
    pre-emptively — tasks are expected to poll cooperatively — but it does
    prevent not-yet-started tasks from running at all. *)
module Cancel : sig
  type t

  val create : unit -> t

  (** [set t] requests cancellation; idempotent, safe from any domain. *)
  val set : t -> unit

  val is_set : t -> bool
end

(** Reported for a task slot whose cancellation token was set before the
    task started. *)
exception Cancelled

(** [run_pinned ?cancel thunks] runs long-lived tasks on {e dedicated}
    domains: the calling domain runs the first thunk, every other thunk
    gets a domain from the process-global pinned worker set (grown so
    that all currently pinned tasks have one, reaped at exit), so racing
    tasks never wait behind one another.  Results come back in
    submission order, every future joined, [Error] for failed or
    token-skipped slots (in-flight tasks must poll [cancel], or a
    {!Harness.Budget}, themselves). *)
val run_pinned : ?cancel:Cancel.t -> (unit -> 'a) list -> ('a, exn) result list

(** The most domains the OCaml runtime runs at once (128, the main domain
    included); past it [Domain.spawn] fails. *)
val domain_limit : int

(** The widest portfolio (and daemon worker set) the command-line tools
    accept (64): one caller's [max_width - 1] pinned seats plus the main
    domain stay below the OCaml runtime's limit of 128 domains, past
    which [Domain.spawn] fails. *)
val max_width : int
