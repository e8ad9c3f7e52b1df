type t = { nvars : int; clauses : Clause.t list (* reversed insertion order *) }

let clause_span c = Clause.max_var c + 1

let create ~nvars clauses =
  let rev_useful =
    List.fold_left (fun acc c -> if Clause.is_tautology c then acc else c :: acc) [] clauses
  in
  let nvars = List.fold_left (fun acc c -> Int.max acc (clause_span c)) nvars rev_useful in
  { nvars; clauses = rev_useful }

let empty ~nvars = { nvars; clauses = [] }
let nvars t = t.nvars
let clauses t = List.rev t.clauses
let n_clauses t = List.length t.clauses

let add_clause t c =
  if Clause.is_tautology c then t
  else { nvars = Int.max t.nvars (clause_span c); clauses = c :: t.clauses }

let has_empty_clause t = List.exists Clause.is_empty t.clauses
let eval assignment t = List.for_all (Clause.eval assignment) t.clauses

let max_brute_force_vars = 24

let fold_models t init f =
  if t.nvars > max_brute_force_vars then
    invalid_arg "Formula: brute force limited to 24 variables";
  let acc = ref init in
  for mask = 0 to (1 lsl t.nvars) - 1 do
    let assignment v = mask lsr v land 1 = 1 in
    if eval assignment t then acc := f !acc assignment
  done;
  !acc

let brute_force_sat t =
  if t.nvars > max_brute_force_vars then None
  else Some (try fold_models t false (fun _ _ -> raise Exit) with Exit -> true)

let brute_force_count t = fold_models t 0 (fun n _ -> n + 1)

let pp ppf t =
  Format.fprintf ppf "@[<v>p cnf %d %d" t.nvars (n_clauses t);
  List.iter (fun c -> Format.fprintf ppf "@,%a" Clause.pp c) (clauses t);
  Format.fprintf ppf "@]"
