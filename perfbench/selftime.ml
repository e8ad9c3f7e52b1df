type span = {
  name : string;
  tid : int;
  ancestors : string list;
  dur_s : float;
  self_s : float;
  alloc_mw : float;
  self_alloc_mw : float;
}

type frame = {
  f_name : string;
  f_id : int;
  f_ts_us : float;
  f_ancestors : string list;
  mutable child_s : float;
  mutable child_mw : float;
}

let minor_mw args =
  match List.assoc_opt "gc_minor_words" args with
  | Some w -> Option.value ~default:0.0 (float_of_string_opt w) /. 1e6
  | None -> 0.0

let spans events =
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 8 in
  let stack tid = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
  let out = ref [] in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.ph with
      | Obs.Trace.Instant -> ()
      | Obs.Trace.Begin ->
          let st = stack e.tid in
          let f_ancestors = match st with [] -> [] | p :: _ -> p.f_name :: p.f_ancestors in
          Hashtbl.replace stacks e.tid
            ({ f_name = e.name; f_id = e.span_id; f_ts_us = e.ts_us; f_ancestors;
               child_s = 0.0; child_mw = 0.0 }
            :: st)
      | Obs.Trace.End -> (
          match stack e.tid with
          | f :: rest when f.f_id = e.span_id ->
              let dur_s = (e.ts_us -. f.f_ts_us) /. 1e6 and alloc_mw = minor_mw e.args in
              out :=
                { name = f.f_name; tid = e.tid; ancestors = f.f_ancestors; dur_s;
                  self_s = dur_s -. f.child_s; alloc_mw;
                  self_alloc_mw = alloc_mw -. f.child_mw }
                :: !out;
              (match rest with
              | p :: _ ->
                  p.child_s <- p.child_s +. dur_s;
                  p.child_mw <- p.child_mw +. alloc_mw
              | [] -> ());
              Hashtbl.replace stacks e.tid rest
          | _ -> ()))
    events;
  List.rev !out

let busy spans pick =
  List.fold_left
    (fun (s, mw) sp -> if pick sp then (s +. sp.self_s, mw +. sp.self_alloc_mw) else (s, mw))
    (0.0, 0.0) spans

let count spans pick = List.length (List.filter pick spans)
