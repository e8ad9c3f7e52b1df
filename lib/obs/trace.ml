(* Span recorder: one append-only buffer per domain, reached through
   domain-local storage so the hot path never takes a lock.  The global
   registry (mutex-guarded) is touched once per domain, when its buffer is
   created, and again only by whole-trace operations (export, reset). *)

type phase = Begin | End | Instant

type event = {
  ph : phase;
  name : string;
  ts_us : float;
  tid : int;
  span_id : int;
  args : (string * string) list;
}

type buf = {
  tid : int;
  mutable events : event array;
  mutable len : int;
  mutable next_id : int; (* domain-local monotonic span id *)
  mutable dropped : int;
  cap : int; (* frozen at buffer creation *)
}

let enabled_flag = ref false
let set_enabled v = enabled_flag := v
let enabled () = !enabled_flag

let capacity = ref 262_144
let set_capacity n = if n > 0 then capacity := n

(* All timestamps are relative to one process-wide epoch so spans from
   different domains align on the same timeline. *)
let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

let registry : buf list ref = ref [] (* newest first *)
let registry_m = Mutex.create ()

(* Human-readable labels for trace tracks (Chrome "thread_name" metadata):
   a portfolio worker names its own domain's track after its configuration
   so the viewer shows "w1:lingeling" instead of a bare domain id.  Written
   once per domain per race — registry mutex cost is irrelevant here. *)
let track_names : (int, string) Hashtbl.t = Hashtbl.create 8

let set_track_name name =
  let tid = (Domain.self () :> int) in
  Mutex.lock registry_m;
  Hashtbl.replace track_names tid name;
  Mutex.unlock registry_m

let track_name_list () =
  Mutex.lock registry_m;
  let l = Hashtbl.fold (fun tid n acc -> (tid, n) :: acc) track_names [] in
  Mutex.unlock registry_m;
  List.sort compare l

let dummy =
  { ph = Instant; name = ""; ts_us = 0.0; tid = 0; span_id = 0; args = [] }

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          tid = (Domain.self () :> int);
          events = Array.make 256 dummy;
          len = 0;
          next_id = 0;
          dropped = 0;
          cap = !capacity;
        }
      in
      Mutex.lock registry_m;
      registry := b :: !registry;
      Mutex.unlock registry_m;
      b)

let buffer () = Domain.DLS.get key

(* Append unconditionally, growing the backing array as needed.  Capacity
   is enforced by the callers on span *begins* only: an end event for an
   already-recorded begin is always written, so begin/end events stay
   matched even once the buffer is full (it can overshoot the cap by at
   most the current span-nesting depth). *)
let append b ev =
  if b.len = Array.length b.events then begin
    let grown = Array.make (2 * Array.length b.events) dummy in
    Array.blit b.events 0 grown 0 b.len;
    b.events <- grown
  end;
  b.events.(b.len) <- ev;
  b.len <- b.len + 1

let with_span ~name ?(args = []) f =
  if not !enabled_flag then f ()
  else begin
    let b = buffer () in
    let recorded =
      if b.len >= b.cap then begin
        b.dropped <- b.dropped + 1;
        None
      end
      else begin
        let id = b.next_id in
        b.next_id <- id + 1;
        append b { ph = Begin; name; ts_us = now_us (); tid = b.tid; span_id = id; args };
        Some id
      end
    in
    (* GC words consumed inside the span, attached to the End event: the
       allocation ledger per phase, read off the trace the same way wall
       time is.  Minor words come from [Gc.minor_words], which counts the
       calling domain's allocation exactly; [Gc.quick_stat]'s minor count
       only advances at a minor collection. *)
    let g0 = Gc.quick_stat () in
    let m0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        match recorded with
        | Some id ->
            let m1 = Gc.minor_words () in
            let g1 = Gc.quick_stat () in
            let args =
              [
                ("gc_minor_words", Printf.sprintf "%.0f" (m1 -. m0));
                ( "gc_major_words",
                  Printf.sprintf "%.0f" (g1.Gc.major_words -. g0.Gc.major_words) );
              ]
            in
            append b { ph = End; name; ts_us = now_us (); tid = b.tid; span_id = id; args }
        | None -> ())
      f
  end

let instant ?(args = []) name =
  if !enabled_flag then begin
    let b = buffer () in
    if b.len >= b.cap then b.dropped <- b.dropped + 1
    else begin
      let id = b.next_id in
      b.next_id <- id + 1;
      append b { ph = Instant; name; ts_us = now_us (); tid = b.tid; span_id = id; args }
    end
  end

(* Whole-trace views snapshot each buffer's length first: owners only ever
   append, so the first [len] slots are immutable by the time we read
   them.  Buffers are visited oldest-registered first for determinism. *)
let snapshot () =
  Mutex.lock registry_m;
  let bufs = List.rev !registry in
  Mutex.unlock registry_m;
  List.map (fun b -> (b, Array.sub b.events 0 b.len)) bufs

let events () =
  List.concat_map (fun (_, evs) -> Array.to_list evs) (snapshot ())

let n_events () = List.fold_left (fun acc (b, _) -> acc + b.len) 0 (snapshot ())

let dropped () =
  Mutex.lock registry_m;
  let n = List.fold_left (fun acc b -> acc + b.dropped) 0 !registry in
  Mutex.unlock registry_m;
  n

let reset () =
  Mutex.lock registry_m;
  List.iter
    (fun b ->
      b.len <- 0;
      b.next_id <- 0;
      b.dropped <- 0)
    !registry;
  Hashtbl.reset track_names;
  Mutex.unlock registry_m

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let emit_event out ~first ev =
  if not !first then Buffer.add_string out ",\n";
  first := false;
  let ph = match ev.ph with Begin -> "B" | End -> "E" | Instant -> "i" in
  Buffer.add_string out
    (Printf.sprintf "  {\"name\": \"%s\", \"cat\": \"bosphorus\", \"ph\": \"%s\", \
                     \"ts\": %.3f, \"pid\": 1, \"tid\": %d" (escape ev.name) ph
       ev.ts_us ev.tid);
  if ev.ph = Instant then Buffer.add_string out ", \"s\": \"t\"";
  (match ev.args with
  | [] -> ()
  | args ->
      Buffer.add_string out ", \"args\": {";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string out ", ";
          Buffer.add_string out
            (Printf.sprintf "\"%s\": \"%s\"" (escape k) (escape v)))
        args;
      Buffer.add_string out "}");
  Buffer.add_string out "}"

let to_json () =
  let out = Buffer.create 4096 in
  let first = ref true in
  Buffer.add_string out "{\"traceEvents\": [\n";
  List.iter
    (fun (tid, name) ->
      if not !first then Buffer.add_string out ",\n";
      first := false;
      Buffer.add_string out
        (Printf.sprintf
           "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": \
            %d, \"args\": {\"name\": \"%s\"}}" tid (escape name)))
    (track_name_list ());
  List.iter
    (fun (_, evs) ->
      (* The owner domain may be mid-span (or a crash may be unwinding):
         close any still-open spans with a synthetic end at the snapshot
         horizon, deepest first, so the document always has matched B/E
         events. *)
      let ended = Hashtbl.create 16 in
      Array.iter
        (fun ev -> if ev.ph = End then Hashtbl.replace ended ev.span_id ())
        evs;
      let horizon = ref 0.0 in
      Array.iter (fun ev -> if ev.ts_us > !horizon then horizon := ev.ts_us) evs;
      let open_spans = ref [] in
      Array.iter
        (fun ev ->
          if ev.ph = Begin && not (Hashtbl.mem ended ev.span_id) then
            open_spans := ev :: !open_spans;
          emit_event out ~first ev)
        evs;
      List.iter
        (fun b ->
          emit_event out ~first
            { b with ph = End; ts_us = !horizon; args = [ ("truncated", "true") ] })
        !open_spans)
    (snapshot ());
  Buffer.add_string out
    (Printf.sprintf "\n], \"displayTimeUnit\": \"ms\", \"droppedSpans\": %d}\n"
       (dropped ()));
  Buffer.contents out

let write path =
  let doc = to_json () in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc doc);
  Sys.rename tmp path
