module P = Anf.Poly
module M = Anf.Monomial
module F = Bosphorus.Facts

type method_ = Row_space of int | Rup of int

type verdict = Certified of method_ | Refuted of string | Unknown of string

type fact_report = {
  index : int;
  origin : F.origin;
  fact : P.t;
  verdict : verdict;
}

type report = {
  facts : fact_report list;
  n_facts : int;
  n_certified : int;
  n_refuted : int;
  n_unknown : int;
  products_tried : int;
  truncated : bool;
}

let all_certified r = r.n_facts = r.n_certified

(* ---------------- SAT-stage logs: RUP and parity steps ---------------- *)

(* A recorded XOR row is trusted only if the stage formula refutes, by
   RUP, every assignment of its variables with the wrong parity; each
   refutation is first looked up among the formula's own clauses, where
   the encoding put it.  Rows over more than [max_row_vars] variables
   (2^(k-1) refutations each) are never trusted: the encoding's pieces
   have at most max(K, L) variables. *)
let max_row_vars = 16

let poly_of_row (vars, parity) =
  List.fold_left (fun acc v -> P.add acc (P.var v)) (P.constant parity) vars

let rec bit_parity a = if a = 0 then 0 else (a land 1) lxor bit_parity (a lsr 1)

let row_holds ~present ~base row =
  let vars = P.vars_array row in
  let k = Array.length vars in
  let parity = if P.has_constant_term row then 1 else 0 in
  (* ascending variables give the formula's own literal order *)
  let refuted a =
    let c = List.init k (fun i -> Cnf.Lit.make vars.(i) ~negated:((a lsr i) land 1 = 1)) in
    Hashtbl.mem present c || Sat.Proof.is_rup ~clauses:base c
  in
  let rec go a = a >= 1 lsl k || ((bit_parity a = parity || refuted a) && go (a + 1)) in
  k <= max_row_vars && go 0

(* Replay a stage's log and return the stage CNF plus the steps that check
   out.  A RUP step must be RUP against the formula plus the verified
   prefix.  A parity step must have its row ({!Sat.Proof.parity_row}) in
   the span of the stage's trusted XOR rows and the unit rows of the
   literals unit propagation derives from the verified clauses — the root
   values the solver's Gauss-Jordan substitutes into its rows.  The unit
   rows are refreshed only when a parity step misses and new steps were
   verified since the last refresh.  Root units, learnt binaries and probe
   results all arise from unit propagation over the verified clauses, so
   they are RUP-derivable from the result. *)
let replay_stage (st : Bosphorus.Audit_trail.sat_stage) =
  let base = List.map Cnf.Clause.to_list (Cnf.Formula.clauses st.formula) in
  let present = Hashtbl.create 1024 in
  List.iter (fun c -> Hashtbl.replace present c ()) base;
  let span = Span.create () in
  List.iter
    (fun row ->
      let p = poly_of_row row in
      if row_holds ~present ~base p then ignore (Span.insert span p))
    st.xors;
  let verified = ref [] and n_verified = ref 0 and units_at = ref (-1) in
  let clauses () = base @ List.rev !verified in
  let unit_row l = poly_of_row ([ Cnf.Lit.var l ], not (Cnf.Lit.negated l)) in
  let add_units () =
    if !units_at < !n_verified then begin
      units_at := !n_verified;
      match Sat.Proof.root_units ~clauses:(clauses ()) with
      | None -> ignore (Span.insert span P.one)
      | Some lits -> List.iter (fun l -> ignore (Span.insert span (unit_row l))) lits
    end
  in
  let parity_holds c =
    let row = poly_of_row (Sat.Proof.parity_row c) in
    Span.mem span row || (add_units (); Span.mem span row)
  in
  List.iter
    (fun step ->
      let c, ok =
        match step with
        | Sat.Proof.Rup c -> (c, Sat.Proof.is_rup ~clauses:(clauses ()) c)
        | Sat.Proof.Parity c -> (c, parity_holds c)
      in
      if ok then begin
        verified := c :: !verified;
        incr n_verified
      end)
    st.proof;
  clauses ()

(* The clause encoding of a fact polynomial, by shape.  [None] for shapes
   with no small clause form (a nonlinear [Other] fact never originates
   from the SAT stage anyway). *)
let clauses_of_fact p =
  match P.classify p with
  | P.Tautology -> Some []
  | P.Contradiction -> Some [ [] ]
  | P.Assign (x, v) ->
      Some [ [ (if v then Cnf.Lit.pos x else Cnf.Lit.neg_of x) ] ]
  | P.Equiv (x, y, c) ->
      if c then
        (* x = y + 1: exactly one of x, y *)
        Some
          [
            [ Cnf.Lit.pos x; Cnf.Lit.pos y ];
            [ Cnf.Lit.neg_of x; Cnf.Lit.neg_of y ];
          ]
      else
        Some
          [
            [ Cnf.Lit.pos x; Cnf.Lit.neg_of y ];
            [ Cnf.Lit.neg_of x; Cnf.Lit.pos y ];
          ]
  | P.All_ones vars -> Some (List.map (fun v -> [ Cnf.Lit.pos v ]) vars)
  | P.Other -> None

(* ---------------- the certifier ---------------- *)

type ctx = {
  state : Bosphorus.Anf_prop.state;  (** mirrors the run's substitutions *)
  span : Span.t;
  mutable gens : P.t list;  (** input + certified facts, normalised *)
  universe : int list;  (** variables multipliers may range over *)
  anf_nvars : int;
  mutable degree : int;  (** product degree the span currently covers *)
  max_degree : int;
  max_products : int;
  mutable products_tried : int;
  mutable truncated : bool;
  products_seen : (P.t * M.t, unit) Hashtbl.t;
  stages : (Cnf.Formula.t * Cnf.Lit.t list list Lazy.t) list;
      (** per SAT stage: formula and lazily verified clause set *)
}

(* Extend the span with generator * multiplier products up to [d].  The
   (generator, multiplier) table makes re-runs after generator changes
   incremental; the product budget bounds worst-case blowup and is reported
   as [truncated]. *)
let ensure_products ctx d =
  let d = min d ctx.max_degree in
  let mults = M.one :: Bosphorus.Xl.multipliers ~vars:ctx.universe ~degree:d in
  List.iter
    (fun g ->
      List.iter
        (fun m ->
          if
            (not ctx.truncated)
            && (not (Hashtbl.mem ctx.products_seen (g, m)))
            && M.degree m <= d
          then begin
            Hashtbl.replace ctx.products_seen (g, m) ();
            ctx.products_tried <- ctx.products_tried + 1;
            if ctx.products_tried > ctx.max_products then ctx.truncated <- true
            else ignore (Span.insert ctx.span (P.mul_monomial g m))
          end)
        mults)
    ctx.gens;
  if d > ctx.degree then ctx.degree <- d

let in_span ctx p =
  Span.mem ctx.span p
  || Span.mem ctx.span (Bosphorus.Anf_prop.normalise ctx.state p)

(* Escalate the product degree until the fact reduces to zero. *)
let try_row_space ctx fact =
  let rec go d =
    if d > ctx.max_degree then None
    else begin
      ensure_products ctx d;
      if in_span ctx fact then Some (Certified (Row_space d)) else go (d + 1)
    end
  in
  go ctx.degree

let try_rup ctx fact =
  match clauses_of_fact fact with
  | None -> None
  | Some encoding ->
      let ok_vars nvars =
        List.for_all (fun v -> v < ctx.anf_nvars && v < nvars) (P.vars fact)
      in
      let rec go i = function
        | [] -> None
        | (formula, verified) :: rest ->
            if
              ok_vars (Cnf.Formula.nvars formula)
              && List.for_all
                   (fun c -> Sat.Proof.is_rup ~clauses:(Lazy.force verified) c)
                   encoding
            then Some (Certified (Rup i))
            else go (i + 1) rest
      in
      go 0 ctx.stages

(* A certified fact is absorbed the way the driver absorbed it: inserted
   into the span, appended to the generators, and — when it is an
   assignment or equivalence — replayed into the mirrored propagation
   state, after which every generator is renormalised.  This keeps the
   generators pointwise equal to the run's master system, so later facts
   stay derivable at low product degree. *)
let absorb ctx fact =
  ignore (Span.insert ctx.span fact);
  let mark_inconsistent () = ignore (Span.insert ctx.span P.one) in
  let fact_n = Bosphorus.Anf_prop.normalise ctx.state fact in
  (match P.classify fact_n with
  | P.Assign (x, v) -> (
      match Bosphorus.Anf_prop.assign ctx.state x v with
      | `Ok -> ()
      | `Conflict -> mark_inconsistent ())
  | P.Equiv (x, y, c) -> (
      match Bosphorus.Anf_prop.equate ctx.state x y ~negated:c with
      | `Ok -> ()
      | `Conflict -> mark_inconsistent ())
  | P.All_ones vars ->
      List.iter
        (fun x ->
          match Bosphorus.Anf_prop.assign ctx.state x true with
          | `Ok -> ()
          | `Conflict -> mark_inconsistent ())
        vars
  | P.Contradiction -> mark_inconsistent ()
  | P.Tautology | P.Other -> ());
  let gens =
    List.filter
      (fun p -> not (P.is_zero p))
      (List.map (Bosphorus.Anf_prop.normalise ctx.state) (fact_n :: ctx.gens))
  in
  let gens = List.sort_uniq P.compare gens in
  List.iter (fun g -> ignore (Span.insert ctx.span g)) gens;
  ctx.gens <- gens

let certify ?max_product_degree ?(max_products = 200_000) ?input
    (outcome : Bosphorus.Driver.outcome) =
  let input =
    match (input, outcome.Bosphorus.Driver.trail) with
    | Some polys, _ -> Some polys
    | None, Some trail -> Some (Bosphorus.Audit_trail.input trail)
    | None, None -> None
  in
  let fact_list = F.to_list outcome.Bosphorus.Driver.facts in
  match input with
  | None ->
      let facts =
        List.mapi
          (fun index (origin, fact) ->
            {
              index;
              origin;
              fact;
              verdict =
                Unknown "no audit trail: run with Config.audit_trail or pass ~input";
            })
          fact_list
      in
      {
        facts;
        n_facts = List.length facts;
        n_certified = 0;
        n_refuted = 0;
        n_unknown = List.length facts;
        products_tried = 0;
        truncated = false;
      }
  | Some input ->
      let universe =
        List.sort_uniq Int.compare
          (List.concat_map P.vars input
          @ List.concat_map (fun (_, p) -> P.vars p) fact_list)
      in
      let anf_nvars =
        List.fold_left (fun acc p -> max acc (P.max_var p + 1)) 0 input
      in
      let max_degree =
        match max_product_degree with
        | Some d -> d
        | None ->
            max 2 (List.fold_left (fun acc p -> max acc (P.degree p)) 1 input)
      in
      let stages =
        match outcome.Bosphorus.Driver.trail with
        | None -> []
        | Some trail ->
            List.map
              (fun st -> (st.Bosphorus.Audit_trail.formula, lazy (replay_stage st)))
              (Bosphorus.Audit_trail.sat_stages trail)
      in
      let ctx =
        {
          state = Bosphorus.Anf_prop.create ();
          span = Span.create ();
          gens = List.filter (fun p -> not (P.is_zero p)) input;
          universe;
          anf_nvars;
          degree = 0;
          max_degree;
          max_products;
          products_tried = 0;
          truncated = false;
          products_seen = Hashtbl.create 4096;
          stages;
        }
      in
      ensure_products ctx 0;
      (* a model of the input refutes any fact it falsifies *)
      let model_refutes =
        match outcome.Bosphorus.Driver.status with
        | Bosphorus.Driver.Solved_sat sol ->
            fun fact ->
              let lookup x = List.assoc_opt x sol in
              if List.for_all (fun v -> lookup v <> None) (P.vars fact) then
                P.eval (fun x -> Option.value ~default:false (lookup x)) fact
              else false
        | Bosphorus.Driver.Solved_unsat | Bosphorus.Driver.Processed
        | Bosphorus.Driver.Degraded ->
            fun _ -> false
      in
      let facts =
        List.mapi
          (fun index (origin, fact) ->
            let verdict =
              if model_refutes fact then
                Refuted "falsified by the satisfying assignment of the input"
              else if Span.mem ctx.span P.one then
                (* inconsistent system: every polynomial is implied *)
                Certified (Row_space ctx.degree)
              else begin
                let order =
                  if origin = F.Sat_solver then [ try_rup; try_row_space ]
                  else [ try_row_space; try_rup ]
                in
                match List.find_map (fun f -> f ctx fact) order with
                | Some v -> v
                | None ->
                    Unknown
                      (Printf.sprintf
                         "not derived at product degree <= %d%s" ctx.max_degree
                         (if ctx.truncated then " (product budget exhausted)"
                          else ""))
              end
            in
            (match verdict with Certified _ -> absorb ctx fact | _ -> ());
            { index; origin; fact; verdict })
          fact_list
      in
      let count f = List.length (List.filter f facts) in
      {
        facts;
        n_facts = List.length facts;
        n_certified = count (fun r -> match r.verdict with Certified _ -> true | _ -> false);
        n_refuted = count (fun r -> match r.verdict with Refuted _ -> true | _ -> false);
        n_unknown = count (fun r -> match r.verdict with Unknown _ -> true | _ -> false);
        products_tried = ctx.products_tried;
        truncated = ctx.truncated;
      }

(* ---------------- reporting ---------------- *)

let pp_verdict ppf = function
  | Certified (Row_space d) ->
      Format.fprintf ppf "certified (row space, product degree %d)" d
  | Certified (Rup i) -> Format.fprintf ppf "certified (RUP, SAT stage %d)" i
  | Refuted why -> Format.fprintf ppf "REFUTED: %s" why
  | Unknown why -> Format.fprintf ppf "unknown: %s" why

let pp_summary ppf r =
  Format.fprintf ppf "%d/%d facts certified (%d refuted, %d unknown)"
    r.n_certified r.n_facts r.n_refuted r.n_unknown;
  if r.truncated then Format.fprintf ppf " [product budget exhausted]";
  let by_origin =
    List.map
      (fun o ->
        let of_o = List.filter (fun fr -> fr.origin = o) r.facts in
        let ok =
          List.length
            (List.filter
               (fun fr -> match fr.verdict with Certified _ -> true | _ -> false)
               of_o)
        in
        (o, ok, List.length of_o))
      [ F.Propagation; F.Xl; F.Elimlin; F.Sat_solver; F.Groebner ]
  in
  List.iter
    (fun (o, ok, total) ->
      if total > 0 then
        Format.fprintf ppf "@.  %s: %d/%d" (F.origin_name o) ok total)
    by_origin

let pp ppf r =
  pp_summary ppf r;
  List.iter
    (fun fr ->
      match fr.verdict with
      | Certified _ -> ()
      | Refuted _ | Unknown _ ->
          Format.fprintf ppf "@.  fact[%d] (%s) %s: %a" fr.index
            (F.origin_name fr.origin) (P.to_string fr.fact) pp_verdict
            fr.verdict)
    r.facts
