(** Low-overhead nestable span tracing with per-domain buffers.

    The fact-learning loop interleaves XL, ElimLin and conflict-bounded
    CDCL, with portfolio seats and daemon workers on their own domains;
    to see {e which} technique learns {e what},
    {e when}, and at what cost, every layer wraps its work in spans.  The
    recorder is designed around two constraints:

    - {b Disabled runs pay one branch.}  Tracing is off by default; every
      entry point reads a plain boolean and leaves.  Hot kernels can keep
      their instrumentation unconditionally.
    - {b No cross-domain contention.}  Each domain appends to its own
      buffer (domain-local storage, domain-local monotonic span ids); the
      only shared state is a registry mutex taken once per domain, at its
      first event.

    The export format is Chrome trace-event JSON ({!to_json}): runs open
    directly in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto},
    with one track per domain, so seat and worker utilisation is visible
    at a glance.  Buffers are bounded: past {!set_capacity} events per domain,
    new spans are dropped (and counted in {!dropped}) rather than grown —
    an already-open span always records its end, so exported begin/end
    events stay matched even at the cap. *)

(** Event phase: span begin, span end, or a zero-duration instant mark
    (e.g. a budget trip). *)
type phase = Begin | End | Instant

type event = {
  ph : phase;
  name : string;
  ts_us : float;  (** microseconds since the process trace epoch *)
  tid : int;  (** id of the recording domain *)
  span_id : int;  (** domain-local monotonic id; shared by a Begin/End pair *)
  args : (string * string) list;
}

(** Enable or disable recording.  Off by default.  Enabling mid-run is
    safe; disabling mid-span simply stops the span's end from recording
    (the pair was begun while enabled, so the end is still written — see
    {!with_span}). *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Per-domain event capacity (default 262144).  Applies to buffers
    created after the call; call before enabling. *)
val set_capacity : int -> unit

(** [with_span ~name ?args f] runs [f] inside a timed span recorded on
    the calling domain.  The span closes on normal return {e and} on
    exception (the exception is re-raised).  The closing event carries
    the GC words allocated inside the span as [gc_minor_words] /
    [gc_major_words] args — the per-phase allocation ledger of the
    off-heap work.  When tracing is disabled this is [f ()] plus one
    branch. *)
val with_span : name:string -> ?args:(string * string) list -> (unit -> 'a) -> 'a

(** Record a zero-duration instant event (rendered as a vertical mark). *)
val instant : ?args:(string * string) list -> string -> unit

(** [set_track_name name] labels the calling domain's track in the
    exported trace (Chrome [thread_name] metadata).  Portfolio workers
    call this once so their tracks read "w1:lingeling" rather than a bare
    domain id.  Latest call per domain wins; cleared by {!reset}. *)
val set_track_name : string -> unit

(** {2 Inspection (tests, reporting)} *)

(** Snapshot of all recorded events, grouped by recording domain in
    domain-registration order, each domain's events in recording order. *)
val events : unit -> event list

(** Total events currently buffered across all domains. *)
val n_events : unit -> int

(** Spans dropped because a domain buffer hit its capacity. *)
val dropped : unit -> int

(** Clear every buffer (counters, ids and drop counts included).  Only
    safe while no other domain is recording; intended for tests and for
    bench runs that trace each experiment separately. *)
val reset : unit -> unit

(** {2 Export} *)

(** The full Chrome trace-event document:
    [{"traceEvents": [...], "displayTimeUnit": "ms", "droppedSpans": n}].
    Spans begun but not yet finished are emitted with a synthetic end at
    export time, so the document always parses with matched B/E events. *)
val to_json : unit -> string

(** [write path] atomically writes {!to_json} to [path] (via a temporary
    file and rename, so a crash mid-write never leaves a torn file). *)
val write : string -> unit
