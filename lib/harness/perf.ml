(* Performance counters around a measured section: wall clock plus OCaml
   GC allocation (minor/major words).  The SAT bench suites combine these
   with the solver's own counters (propagations, conflicts, arena bytes)
   into propagations/sec and allocation-per-run figures.  Minor words come
   from [Gc.minor_words], exact for the calling domain; [Gc.quick_stat]'s
   minor count only advances at a minor collection. *)

type counters = {
  wall_s : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

let measure f =
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let m0 = Gc.minor_words () in
  let x = f () in
  let m1 = Gc.minor_words () in
  let t1 = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () in
  ( x,
    {
      wall_s = t1 -. t0;
      minor_words = m1 -. m0;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    } )

(* events per second, tolerating a sub-resolution wall time *)
let rate count c = if c.wall_s <= 0.0 then 0.0 else float_of_int count /. c.wall_s

let add a b =
  {
    wall_s = a.wall_s +. b.wall_s;
    minor_words = a.minor_words +. b.minor_words;
    major_words = a.major_words +. b.major_words;
    promoted_words = a.promoted_words +. b.promoted_words;
  }

let zero = { wall_s = 0.0; minor_words = 0.0; major_words = 0.0; promoted_words = 0.0 }

let pp ppf c =
  Format.fprintf ppf "wall=%.4fs minor=%.0fw major=%.0fw promoted=%.0fw" c.wall_s
    c.minor_words c.major_words c.promoted_words

(* Flatten counters into bench-record extras (optionally namespaced with
   [prefix]) so every JSON bench record can carry its GC words per phase
   next to the solver counters. *)
let to_extras ?(prefix = "") c =
  [
    (prefix ^ "gc_minor_words", c.minor_words);
    (prefix ^ "gc_major_words", c.major_words);
    (prefix ^ "gc_promoted_words", c.promoted_words);
  ]
