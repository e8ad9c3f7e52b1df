type clause = Cnf.Lit.t list
type step = Rup of clause | Parity of clause

(* Truth value of a literal under a partial assignment keyed by variable. *)
let lit_value assignment l =
  match Hashtbl.find_opt assignment (Cnf.Lit.var l) with
  | None -> None
  | Some b -> Some (b <> Cnf.Lit.negated l)

(* Naive unit propagation to fixpoint: scan all clauses until no clause is
   unit.  Quadratic, but the checker's job is to be obviously correct, not
   fast.  Returns [true] iff a conflict was reached. *)
let propagate_to_conflict clauses assignment =
  let conflict = ref false in
  let changed = ref true in
  while !changed && not !conflict do
    changed := false;
    List.iter
      (fun clause ->
        if not !conflict then begin
          let unassigned = ref [] in
          let satisfied = ref false in
          List.iter
            (fun l ->
              match lit_value assignment l with
              | Some true -> satisfied := true
              | Some false -> ()
              | None -> unassigned := l :: !unassigned)
            clause;
          if not !satisfied then
            match !unassigned with
            | [] -> conflict := true
            | [ l ] ->
                Hashtbl.replace assignment (Cnf.Lit.var l) (not (Cnf.Lit.negated l));
                changed := true
            | _ :: _ :: _ -> ()
        end)
      clauses
  done;
  !conflict

let is_rup ~clauses step =
  let assignment = Hashtbl.create 64 in
  (* assert the negation of the candidate clause *)
  let consistent =
    List.for_all
      (fun l ->
        match lit_value assignment l with
        | Some true -> false (* the negation is itself contradictory: ok *)
        | Some false -> true
        | None ->
            Hashtbl.replace assignment (Cnf.Lit.var l) (Cnf.Lit.negated l);
            true)
      step
  in
  if not consistent then true else propagate_to_conflict clauses assignment

let root_units ~clauses =
  let assignment = Hashtbl.create 64 in
  if propagate_to_conflict clauses assignment then None
  else
    Some
      (Hashtbl.fold
         (fun v b acc -> Cnf.Lit.make v ~negated:(not b) :: acc)
         assignment [])

(* The excluded assignment sets a variable true exactly where its literal
   is negative, so it has the parity of the negative literals; the row
   takes the other parity. *)
let parity_row c =
  let c = List.sort_uniq Cnf.Lit.compare c in
  ( List.map Cnf.Lit.var c,
    List.length (List.filter Cnf.Lit.negated c) mod 2 = 0 )

let check formula proof =
  let base = List.map Cnf.Clause.to_list (Cnf.Formula.clauses formula) in
  (* stop at the empty clause: everything after it is irrelevant *)
  let rec go clauses = function
    | [] | Parity _ :: _ -> false
    | Rup c :: rest -> is_rup ~clauses c && (List.is_empty c || go (c :: clauses) rest)
  in
  go base proof
