let models ?(limit = 1024) ?relevant f =
  let nvars = Cnf.Formula.nvars f in
  let relevant =
    match relevant with
    | Some vs -> List.sort_uniq Int.compare (List.filter (fun v -> v < nvars) vs)
    | None -> List.init nvars Fun.id
  in
  let s = Sat.Solver.create ~nvars () in
  let ok = ref (Sat.Solver.add_formula s f) in
  let found = ref [] in
  let n = ref 0 in
  while !ok && !n < limit do
    match Sat.Solver.solve s with
    | Sat.Types.Sat model ->
        found := model :: !found;
        incr n;
        (* block this projection: at least one relevant variable differs *)
        let blocking =
          List.map (fun v -> Cnf.Lit.make v ~negated:model.(v)) relevant
        in
        if List.is_empty blocking then ok := false (* single projected point *)
        else ok := Sat.Solver.add_clause s blocking
    | Sat.Types.Unsat -> ok := false
    | Sat.Types.Undecided -> ok := false
  done;
  (* complete iff the search space was exhausted (the solver said UNSAT or
     the projection collapsed), not merely the limit reached *)
  (List.rev !found, not !ok)

let count ?limit ?relevant f =
  let ms, complete = models ?limit ?relevant f in
  if complete then Some (List.length ms) else None
