(* Reference implementations of the ANF rewriting the library now does in
   one pass: the sort-everything [Poly.subst], propagation's chain of
   substitutions ([Anf_prop.normalise]) and ElimLin's sequential
   re-application of a round's substitutions.  The property tests check
   that the library returns exactly what these return. *)

module M = Anf.Monomial
module P = Anf.Poly

(* every monomial with [target] becomes (monomial / target) * by; the
   whole multiset is sorted and cancelled at once *)
let subst p ~target ~by =
  if not (P.contains_var p target) then p
  else
    P.of_monomials
      (List.concat_map
         (fun m ->
           if M.contains m target then
             let rest = M.remove_var m target in
             List.map (fun mb -> M.mul rest mb) (P.monomials by)
           else [ m ])
         (P.monomials p))

let literal_poly state x =
  match Bosphorus.Anf_prop.value_of state x with
  | Some v -> P.constant v
  | None ->
      let root, parity = Bosphorus.Anf_prop.repr_of state x in
      if parity then P.add (P.var root) P.one else P.var root

(* one [subst] per variable of [p], in ascending order *)
let normalise state p =
  let needs_rewrite =
    List.exists
      (fun x ->
        Bosphorus.Anf_prop.value_of state x <> None
        ||
        let root, parity = Bosphorus.Anf_prop.repr_of state x in
        root <> x || parity)
      (P.vars p)
  in
  if not needs_rewrite then p
  else List.fold_left (fun q x -> subst q ~target:x ~by:(literal_poly state x)) p (P.vars p)

(* [applied] is the round's substitutions (x_i, by_i), oldest first *)
let normalise_by_applied applied p =
  List.fold_left (fun q (x, by) -> subst q ~target:x ~by) p applied

(* ascending distinct variables through a set *)
let vars p =
  let module S = Set.Make (Int) in
  S.elements
    (List.fold_left
       (fun s m -> List.fold_left (fun s x -> S.add x s) s (M.vars m))
       S.empty (P.monomials p))
