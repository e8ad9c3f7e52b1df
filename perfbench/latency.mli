(** Latency percentiles and the service hit/miss split. *)

(** [percentile xs p] is the nearest-rank [p]-th percentile (0 < p <= 100)
    of [xs]; 0 when [xs] is empty. *)
val percentile : float list -> float -> float

(** [median xs] is the middle value of [xs], or the mean of the two
    middle values when their number is even; 0 when [xs] is empty.  Unlike
    the nearest-rank 50th percentile it does not jump a whole gap between
    the two middle values when they swap places. *)
val median : float list -> float

(** [tail xs] is the highest percentile of [xs] that still has at least 10
    samples beyond it, as [(value, level, n_beyond)]: for 1000 samples it
    is the 99th percentile.  With fewer than 11 samples it is the maximum,
    with fewer than 10 samples beyond. *)
val tail : float list -> float * float * int

(** [per_item_median runs] takes runs that time the same items in the
    same order and gives each item's median time over the runs.  A host
    stall lands on a few items of one run; the median drops it, so a tail
    percentile taken over the result shows the program's own tail.
    @raise Invalid_argument if the runs differ in length. *)
val per_item_median : float list list -> float list

(** One service reply as the client saw it. *)
type reply = {
  latency_s : float;  (** submit to reply, measured by the client *)
  compute_s : float;  (** the reply's [wall_s]: the daemon's compute time *)
  cache_hit : bool;
}

(** The split of service latency.  A cache hit replays the stored
    summary, [wall_s] included, so its [compute_s] is the original miss's
    compute time: compute and wait (latency minus compute, i.e. queueing
    plus framing) are taken from misses only. *)
type split = {
  hits : int;
  misses : int;
  hit_p50_ms : float;
  miss_tail_ms : float;  (** {!tail} of miss latency *)
  miss_compute_p50_ms : float;
  miss_wait_tail_ms : float;  (** {!tail} of miss wait *)
}

val split : reply list -> split
