(** Self-time aggregation over {!Obs.Trace.events}.

    A span's self time is its duration minus the durations of its direct
    children recorded on the same domain.  Spans recorded on another
    domain (pool tasks, daemon workers) are never children: they run in
    parallel with their caller, so subtracting them would undercount the
    caller's own work.  The same rule applies to allocation, read from the
    [gc_minor_words] argument every span end carries. *)

type span = {
  name : string;
  tid : int;
  ancestors : string list;
      (** names of the enclosing spans on the same domain, innermost first *)
  dur_s : float;
  self_s : float;
  alloc_mw : float;  (** minor words allocated inside the span, in millions *)
  self_alloc_mw : float;  (** [alloc_mw] minus that of the direct children *)
}

(** Completed spans in order of completion.  An end event whose begin is
    not on top of its domain's stack (a span begun before a trace reset)
    is skipped. *)
val spans : Obs.Trace.event list -> span list

(** [busy spans pick] sums [self_s] and [self_alloc_mw] over the spans
    [pick] selects. *)
val busy : span list -> (span -> bool) -> float * float

(** Number of spans [pick] selects. *)
val count : span list -> (span -> bool) -> int
