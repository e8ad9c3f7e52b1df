(* Reference two-level minimiser for the differential tests: the original
   pairwise Quine-McCluskey over a [Set] of cubes and the [Set.Make (Int)]
   cover selection.  [Minimize.Espresso.minimise] must return exactly the
   list [minimise] returns, in the same order. *)

module Cube = Minimize.Cube

(* the fully specified cube of minterm [m] *)
let of_minterm ~nvars m = Cube.make ~mask:((1 lsl nvars) - 1) ~value:(m land ((1 lsl nvars) - 1))

(* two cubes with equal masks whose values differ in exactly one bit merge
   into the cube with that bit freed *)
let merge (a : Cube.t) (b : Cube.t) =
  if a.mask <> b.mask then None
  else
    let diff = a.value lxor b.value in
    if diff <> 0 && diff land (diff - 1) = 0 then
      Some (Cube.make ~mask:(a.mask land lnot diff) ~value:(a.value land lnot diff))
    else None

module Quine_mccluskey = struct
  module Cset = Set.Make (Cube)

  (* Classic tabulation: repeatedly merge pairs of cubes that differ in one
     fixed bit; cubes that never merge are prime. *)
  let prime_implicants ~nvars on_set =
    if nvars < 0 || nvars > 16 then invalid_arg "Quine_mccluskey: nvars out of range";
    List.iter
      (fun m -> if m < 0 || m >= 1 lsl nvars then invalid_arg "Quine_mccluskey: minterm out of range")
      on_set;
    let rec round current primes =
      if Cset.is_empty current then Cset.elements primes
      else begin
        let cubes = Cset.elements current in
        let merged_away = Hashtbl.create 16 in
        let next = ref Cset.empty in
        let arr = Array.of_list cubes in
        let n = Array.length arr in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            match merge arr.(i) arr.(j) with
            | Some c ->
                next := Cset.add c !next;
                Hashtbl.replace merged_away arr.(i) ();
                Hashtbl.replace merged_away arr.(j) ()
            | None -> ()
          done
        done;
        let new_primes =
          List.fold_left
            (fun acc c -> if Hashtbl.mem merged_away c then acc else Cset.add c acc)
            primes cubes
        in
        round !next new_primes
      end
    in
    let initial =
      List.fold_left (fun s m -> Cset.add (of_minterm ~nvars m) s) Cset.empty on_set
    in
    round initial Cset.empty
end

module Cover = struct
  let exact_threshold = 18

  module Iset = Set.Make (Int)

  (* Exact minimum cover by branch and bound over the prime list.  [uncovered]
     is the set of minterms still to cover; at each step branch on a minterm
     with the fewest covering primes. *)
  let branch_and_bound primes cover_sets uncovered =
    let n = Array.length primes in
    let best = ref None in
    let best_size = ref max_int in
    let rec go chosen n_chosen uncovered =
      if n_chosen >= !best_size then ()
      else if Iset.is_empty uncovered then begin
        best := Some chosen;
        best_size := n_chosen
      end
      else begin
        (* pick the uncovered minterm with fewest candidate primes *)
        let m, candidates =
          Iset.fold
            (fun m (bm, bc) ->
              let cands = ref [] in
              for i = n - 1 downto 0 do
                if Iset.mem m cover_sets.(i) then cands := i :: !cands
              done;
              if List.length !cands < List.length bc || bm < 0 then (m, !cands) else (bm, bc))
            uncovered
            (-1, List.init (n + 1) Fun.id)
        in
        ignore m;
        List.iter
          (fun i ->
            let uncovered' = Iset.diff uncovered cover_sets.(i) in
            go (i :: chosen) (n_chosen + 1) uncovered')
          candidates
      end
    in
    go [] 0 uncovered;
    Option.map (List.map (fun i -> primes.(i))) !best

  let greedy primes cover_sets uncovered =
    let n = Array.length primes in
    let chosen = ref [] in
    let uncovered = ref uncovered in
    while not (Iset.is_empty !uncovered) do
      let best_i = ref (-1) and best_gain = ref 0 in
      for i = 0 to n - 1 do
        let gain = Iset.cardinal (Iset.inter cover_sets.(i) !uncovered) in
        if gain > !best_gain then begin
          best_gain := gain;
          best_i := i
        end
      done;
      if !best_i < 0 then invalid_arg "Cover.select: uncoverable minterm";
      chosen := primes.(!best_i) :: !chosen;
      uncovered := Iset.diff !uncovered cover_sets.(!best_i)
    done;
    !chosen

  let select ~nvars:_ ~primes ~on_set =
    match on_set with
    | [] -> []
    | _ ->
        let primes = Array.of_list primes in
        let cover_sets =
          Array.map
            (fun p -> Iset.of_list (List.filter (Cube.covers p) on_set))
            primes
        in
        let all = Iset.of_list on_set in
        let union = Array.fold_left Iset.union Iset.empty cover_sets in
        if not (Iset.subset all union) then invalid_arg "Cover.select: uncoverable minterm";
        (* essential primes: sole coverer of some minterm *)
        let essential = Hashtbl.create 8 in
        Iset.iter
          (fun m ->
            let coverers = ref [] in
            Array.iteri (fun i s -> if Iset.mem m s then coverers := i :: !coverers) cover_sets;
            match !coverers with [ i ] -> Hashtbl.replace essential i () | _ -> ())
          all;
        let chosen0 = Hashtbl.fold (fun i () acc -> i :: acc) essential [] in
        let covered0 =
          List.fold_left (fun s i -> Iset.union s cover_sets.(i)) Iset.empty chosen0
        in
        let residual = Iset.diff all covered0 in
        let residual_primes =
          Array.to_list primes
          |> List.mapi (fun i p -> (i, p))
          |> List.filter (fun (i, _) ->
                 (not (Hashtbl.mem essential i))
                 && not (Iset.is_empty (Iset.inter cover_sets.(i) residual)))
        in
        let rest =
          let rp = Array.of_list (List.map snd residual_primes) in
          let rsets =
            Array.of_list
              (List.map (fun (i, _) -> Iset.inter cover_sets.(i) residual) residual_primes)
          in
          if Iset.is_empty residual then []
          else if Array.length rp <= exact_threshold then
            match branch_and_bound rp rsets residual with
            | Some sol -> sol
            | None -> greedy rp rsets residual
          else greedy rp rsets residual
        in
        List.map (fun i -> primes.(i)) chosen0 @ rest
end

let minimise ~nvars ~on_set =
  let on_set = List.sort_uniq Int.compare on_set in
  let primes = Quine_mccluskey.prime_implicants ~nvars on_set in
  Cover.select ~nvars ~primes ~on_set
