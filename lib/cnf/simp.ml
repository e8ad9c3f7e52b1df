type simplified = {
  formula : Formula.t;
  fixed : (int * bool) list;
  eliminated : int list;
  reconstruct : bool array -> bool array;
}

type outcome = Unsat | Simplified of simplified

(* Events replayed in reverse by the model reconstructor. *)
type event = Fixed of int * bool | Eliminated of int * Clause.t list

exception Found_unsat

let simplify ?(bve = true) ?(max_resolvent_growth = 0) ?(quadratic_limit = 20_000) f =
  let orig_nvars = Formula.nvars f in
  (* live clause store with tombstones *)
  let store : Clause.t option array ref =
    let clauses = Formula.clauses f in
    (* filled from [None], not [Array.of_list]: past 256 slots that would
       force a minor collection to promote its first element *)
    let a = Array.make (List.length clauses) None in
    List.iteri (fun i c -> a.(i) <- Some c) clauses;
    ref a
  in
  let events = ref [] in
  let fixed_tbl = Hashtbl.create 16 in
  let eliminated_tbl = Hashtbl.create 16 in
  let fix v b =
    if not (Hashtbl.mem fixed_tbl v) then begin
      Hashtbl.replace fixed_tbl v b;
      events := Fixed (v, b) :: !events
    end
    else if Hashtbl.find fixed_tbl v <> b then raise Found_unsat
  in
  let live () =
    Array.to_list !store |> List.filter_map Fun.id
  in
  (* apply current fixed assignment to every clause *)
  let apply_fixed () =
    let changed = ref false in
    Array.iteri
      (fun i c ->
        match c with
        | None -> ()
        | Some c ->
            let lits = Clause.to_list c in
            let sat =
              List.exists
                (fun l ->
                  match Hashtbl.find_opt fixed_tbl (Lit.var l) with
                  | Some b -> b <> Lit.negated l
                  | None -> false)
                lits
            in
            if sat then begin
              !store.(i) <- None;
              changed := true
            end
            else
              let lits' =
                List.filter (fun l -> not (Hashtbl.mem fixed_tbl (Lit.var l))) lits
              in
              if List.length lits' <> List.length lits then begin
                changed := true;
                match lits' with
                | [] -> raise Found_unsat
                | [ l ] ->
                    fix (Lit.var l) (not (Lit.negated l));
                    !store.(i) <- None
                | _ -> !store.(i) <- Some (Clause.of_list lits')
              end)
      !store;
    !changed
  in
  (* apply the fixed assignment repeatedly: rewriting can fix further
     variables, and clauses must never retain a fixed variable (event
     ordering in the reconstructor depends on it) *)
  let rec apply_fixed_fixpoint acc =
    if apply_fixed () then apply_fixed_fixpoint true else acc
  in
  let propagate_units () =
    let changed = ref false in
    Array.iteri
      (fun i c ->
        match c with
        | None -> ()
        | Some c -> (
            match Clause.to_list c with
            | [] -> raise Found_unsat
            | [ l ] ->
                fix (Lit.var l) (not (Lit.negated l));
                !store.(i) <- None;
                changed := true
            | _ :: _ :: _ -> ()))
      !store;
    apply_fixed_fixpoint !changed
  in
  let pure_literals () =
    let seen_pos = Hashtbl.create 64 and seen_neg = Hashtbl.create 64 in
    List.iter
      (fun c ->
        List.iter
          (fun l ->
            let t = if Lit.negated l then seen_neg else seen_pos in
            Hashtbl.replace t (Lit.var l) ())
          (Clause.to_list c))
      (live ());
    let changed = ref false in
    let consider v =
      if (not (Hashtbl.mem fixed_tbl v)) && not (Hashtbl.mem eliminated_tbl v) then begin
        let p = Hashtbl.mem seen_pos v and n = Hashtbl.mem seen_neg v in
        if p && not n then (fix v true; changed := true)
        else if n && not p then (fix v false; changed := true)
      end
    in
    Hashtbl.iter (fun v () -> consider v) seen_pos;
    Hashtbl.iter (fun v () -> consider v) seen_neg;
    if !changed then ignore (apply_fixed_fixpoint false);
    !changed
  in
  let subsumption () =
    (* forward subsumption and self-subsuming resolution, quadratic over a
       var-indexed candidate set *)
    let changed = ref false in
    let occ = Hashtbl.create 64 in
    Array.iteri
      (fun i c ->
        match c with
        | None -> ()
        | Some c ->
            List.iter
              (fun v ->
                Hashtbl.replace occ v (i :: Option.value (Hashtbl.find_opt occ v) ~default:[]))
              (Clause.vars c))
      !store;
    let candidate_ids c =
      (* clauses sharing the least-frequent variable of c *)
      match Clause.vars c with
      | [] -> []
      | v0 :: vs ->
          let count v = List.length (Option.value (Hashtbl.find_opt occ v) ~default:[]) in
          let best = List.fold_left (fun b v -> if count v < count b then v else b) v0 vs in
          Option.value (Hashtbl.find_opt occ best) ~default:[]
    in
    (* read the subsumer through the live store on every use: a clause
       removed earlier in this very pass must not keep subsuming (two
       duplicate clauses would otherwise annihilate each other) *)
    Array.iteri
      (fun i c0 ->
        match c0 with
        | None -> ()
        | Some c0 ->
            (match !store.(i) with
            | None -> ()
            | Some c ->
                List.iter
                  (fun j ->
                    if i <> j then
                      match !store.(j) with
                      | None -> ()
                      | Some d ->
                          if Clause.subsumes c d then begin
                            !store.(j) <- None;
                            changed := true
                          end)
                  (candidate_ids c));
            (* self-subsuming resolution: if flipping one literal of c makes
               it subsume d, remove that literal's negation from d *)
            List.iter
              (fun l ->
                match !store.(i) with
                | None -> ()
                | Some c ->
                    if Clause.mem c l then
                      let c' =
                        Clause.of_list
                          (Lit.neg l
                          :: List.filter (fun x -> not (Lit.equal x l)) (Clause.to_list c))
                      in
                      List.iter
                        (fun j ->
                          if i <> j then
                            match !store.(j) with
                            | None -> ()
                            | Some d ->
                                if Clause.subsumes c' d then begin
                                  let d' =
                                    Clause.of_list
                                      (List.filter
                                         (fun x -> not (Lit.equal x (Lit.neg l)))
                                         (Clause.to_list d))
                                  in
                                  (match Clause.to_list d' with
                                  | [] -> raise Found_unsat
                                  | [ u ] ->
                                      fix (Lit.var u) (not (Lit.negated u));
                                      !store.(j) <- None
                                  | _ -> !store.(j) <- Some d');
                                  changed := true
                                end)
                        (candidate_ids c'))
              (Clause.to_list c0))
      !store;
    if !changed then ignore (apply_fixed_fixpoint false);
    !changed
  in
  let resolve c d ~on:v =
    (* resolvent of c (contains v) and d (contains ~v); None if tautology *)
    let lits =
      List.filter (fun l -> Lit.var l <> v) (Clause.to_list c @ Clause.to_list d)
    in
    let r = Clause.of_list lits in
    if Clause.is_tautology r then None else Some r
  in
  let eliminate_variables () =
    (* saved clauses must not contain fixed variables, or the reconstructor
       would process their values in the wrong order *)
    ignore (apply_fixed_fixpoint false);
    let changed = ref false in
    let vars =
      List.sort_uniq Int.compare (List.concat_map Clause.vars (live ()))
    in
    List.iter
      (fun v ->
        if (not (Hashtbl.mem fixed_tbl v)) && not (Hashtbl.mem eliminated_tbl v) then begin
          let pos = ref [] and neg = ref [] in
          Array.iteri
            (fun i c ->
              match c with
              | None -> ()
              | Some c ->
                  if Clause.mem c (Lit.pos v) then pos := (i, c) :: !pos
                  else if Clause.mem c (Lit.neg_of v) then neg := (i, c) :: !neg)
            !store;
          let np = List.length !pos and nn = List.length !neg in
          (* bound the quadratic blow-up like SatELite *)
          if np > 0 && nn > 0 && np * nn <= 64 then begin
            let resolvents =
              List.concat_map
                (fun (_, c) -> List.filter_map (fun (_, d) -> resolve c d ~on:v) !neg)
                !pos
            in
            if List.length resolvents <= np + nn + max_resolvent_growth then begin
              let saved = List.map snd !pos @ List.map snd !neg in
              List.iter (fun (i, _) -> !store.(i) <- None) !pos;
              List.iter (fun (i, _) -> !store.(i) <- None) !neg;
              store := Array.append !store (Array.of_list (List.map Option.some resolvents));
              Hashtbl.replace eliminated_tbl v ();
              events := Eliminated (v, saved) :: !events;
              changed := true
            end
          end
        end)
      vars;
    if !changed then ignore (apply_fixed_fixpoint false);
    !changed
  in
  match
    let rec fixpoint round =
      if round > 5 then ()
      else begin
        let c1 = propagate_units () in
        let c2 = pure_literals () in
        let within_limit =
          Array.fold_left (fun n c -> if Option.is_none c then n else n + 1) 0 !store
          <= quadratic_limit
        in
        let c3 = if within_limit then subsumption () else false in
        let c4 = if bve && within_limit then eliminate_variables () else false in
        if c1 || c2 || c3 || c4 then fixpoint (round + 1)
      end
    in
    fixpoint 0;
    (* final drain so no fixed variable survives in the formula *)
    let rec drain () = if propagate_units () then drain () in
    drain ()
  with
  | exception Found_unsat -> Unsat
  | () ->
      let formula = Formula.create ~nvars:orig_nvars (live ()) in
      let fixed = Hashtbl.fold (fun v b acc -> (v, b) :: acc) fixed_tbl [] in
      let eliminated = Hashtbl.fold (fun v () acc -> v :: acc) eliminated_tbl [] in
      let events = !events in
      let reconstruct model =
        let m = Array.make (Int.max orig_nvars (Array.length model)) false in
        Array.blit model 0 m 0 (Array.length model);
        (* events is newest-first, which is exactly the order we must undo *)
        List.iter
          (fun e ->
            match e with
            | Fixed (v, b) -> m.(v) <- b
            | Eliminated (v, saved) ->
                let sat_without c =
                  List.exists
                    (fun l -> Lit.var l <> v && Lit.eval (fun x -> m.(x)) l)
                    (Clause.to_list c)
                in
                let needs_true =
                  List.exists
                    (fun c -> Clause.mem c (Lit.pos v) && not (sat_without c))
                    saved
                in
                m.(v) <- needs_true)
          events;
        m
      in
      Simplified { formula; fixed; eliminated; reconstruct }
