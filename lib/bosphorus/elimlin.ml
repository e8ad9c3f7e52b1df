module P = Anf.Poly
module S = Anf.System

type report = { facts : P.t list; rounds : int; final_size : int }

let m_substitutions = Obs.Metrics.counter "elimlin.substitutions"
let m_facts = Obs.Metrics.counter "elimlin.facts"
let m_rounds = Obs.Metrics.counter "elimlin.rounds"

let gje ?(poll = fun () -> ()) polys =
  Obs.Trace.with_span ~name:"elimlin.gje" @@ fun () ->
  (Linearize.reduce ~poll polys).Linearize.rows

(* The substitutions x_i := by_i of one round, applied to linear equations.
   Each [by_i] mentions only variables substituted after x_i, so a linear
   [l] reduces by adding in the equation x_i + by_i of the earliest
   substituted variable it contains, until none is left: the earliest
   index grows with every addition.  The result equals substituting
   x_1, x_2, ... one after another, because any nonzero sum of these
   equations contains its earliest x_i exactly once, so the reduced form
   is unique. *)
module Substitutions = struct
  type t = {
    index : (int, int) Hashtbl.t; (* variable -> substitution index *)
    mutable equations : P.t array; (* index -> x_i + by_i *)
    mutable n : int;
  }

  let create () = { index = Hashtbl.create 64; equations = [||]; n = 0 }

  let record t x equation =
    if t.n = Array.length t.equations then begin
      let wider = Array.make (max 16 (2 * t.n)) P.zero in
      Array.blit t.equations 0 wider 0 t.n;
      t.equations <- wider
    end;
    t.equations.(t.n) <- equation;
    Hashtbl.replace t.index x t.n;
    t.n <- t.n + 1

  let earliest t l =
    Array.fold_left
      (fun best x ->
        match Hashtbl.find_opt t.index x with
        | Some i when best < 0 || i < best -> i
        | _ -> best)
      (-1) (P.vars_array l)

  let rec reduce t l =
    match earliest t l with -1 -> l | i -> reduce t (P.add l t.equations.(i))
end

exception Contradiction_found of P.t list
exception Out_of_time

(* One ElimLin fixed-point computation over a list of polynomials.  The
   substitution phase is occurrence-indexed through {!Anf.System} so that
   eliminating a variable only touches the equations it occurs in.
   [deadline] (absolute seconds) bounds the pass; dense cipher systems can
   otherwise grind through enormous substitution rounds.  [budget] is the
   driver's global {!Harness.Budget}: a trip behaves exactly like the
   deadline — the pass stops and returns the facts found so far, each of
   which is already a sound consequence of the input. *)
let eliminate ?deadline ?budget polys =
  let facts = ref [] in
  let rounds = ref 0 in
  let past_deadline () =
    match deadline with Some d -> Unix.gettimeofday () > d | None -> false
  in
  let check_budget () =
    match budget with
    | Some b -> Harness.Budget.check b ~layer:"elimlin"
    | None -> ()
  in
  let rec loop polys =
    incr rounds;
    check_budget ();
    if !rounds > 200 || past_deadline () then polys
    else begin
      (* the elimination itself is the longest otherwise-unpolled stretch
         in the whole loop; a full check per column block (a clock read
         against ~1ms of row updates) bounds trip-detection latency on
         dense systems where the amortized window would be too coarse *)
      let reduced = gje ~poll:check_budget polys in
      let linear, nonlinear = List.partition P.is_linear reduced in
      let linear = List.filter (fun p -> not (P.is_zero p)) linear in
      if linear = [] then reduced
      else begin
        let system = S.create nonlinear in
        let applied = Substitutions.create () in
        List.iter
          (fun l ->
            if past_deadline () then raise Out_of_time;
            check_budget ();
            let l = Substitutions.reduce applied l in
            if P.is_one l then raise (Contradiction_found (P.one :: !facts));
            if not (P.is_zero l) then begin
              facts := l :: !facts;
              if P.degree l = 1 then begin
                (* pick the variable of l occurring least in the system;
                   the count is O(1) via the system's occurrence-count
                   table rather than materialising occurrence lists per
                   candidate variable *)
                let count x = S.occurrence_count system x in
                let vars = P.vars l in
                let x =
                  List.fold_left
                    (fun best v -> if count v < count best then v else best)
                    (List.hd vars) (List.tl vars)
                in
                (* l = x + rest, so x := rest *)
                let by = P.add l (P.var x) in
                Substitutions.record applied x l;
                Obs.Metrics.incr m_substitutions;
                (* a substitution over a dense polynomial costs far more
                   than a clock read, so these are full checks rather than
                   amortized polls — detection latency stays bounded by
                   one work unit *)
                List.iter
                  (fun id ->
                    check_budget ();
                    match S.find system id with
                    | None -> ()
                    | Some p ->
                        let q = P.subst p ~target:x ~by in
                        if P.is_one q then
                          raise (Contradiction_found (P.one :: !facts));
                        ignore (S.replace system id q))
                  (S.occurrences system x)
              end
            end)
          linear;
        loop (S.to_list system)
      end
    end
  in
  match loop polys with
  | final -> (List.rev !facts, !rounds, final)
  | exception Contradiction_found fs -> (List.rev fs, !rounds, [ P.one ])
  | exception Out_of_time -> (List.rev !facts, !rounds, [])
  | exception Harness.Budget.Tripped _ -> (List.rev !facts, !rounds, [])

let report_of facts rounds final =
  Obs.Metrics.incr m_facts ~by:(List.length facts);
  Obs.Metrics.incr m_rounds ~by:rounds;
  { facts; rounds; final_size = List.length final }

let run_full polys =
  Obs.Trace.with_span ~name:"elimlin.run" @@ fun () ->
  let facts, rounds, final = eliminate polys in
  report_of facts rounds final

let run ~config ~rng ?budget polys =
  Obs.Trace.with_span ~name:"elimlin.run" @@ fun () ->
  let open Config in
  let cell_budget = 1 lsl config.xl_sample_bits in
  (* like XL, ElimLin runs on a ~2^M-cell subsample (Section II-C) *)
  let sample = Xl.subsample ~rng ~cell_budget polys in
  let deadline = Unix.gettimeofday () +. config.stage_time_s in
  let facts, rounds, final = eliminate ~deadline ?budget sample in
  report_of facts rounds final
