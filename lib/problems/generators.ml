module L = Cnf.Lit
module C = Cnf.Clause
module F = Cnf.Formula

let random_ksat ~nvars ~n_clauses ~k ~rng =
  if k > nvars then invalid_arg "random_ksat: k > nvars";
  (* One table samples every clause's k distinct variables.  [clear]
     keeps its bucket array (never resized: it holds at most k <= its
     bucket count), so the fold visits the variables, and draws their
     signs, in the order a fresh [Hashtbl.create k] would. *)
  let chosen = Hashtbl.create k in
  let draw_sign v () acc = L.make v ~negated:(Random.State.bool rng) :: acc in
  let clause () =
    Hashtbl.clear chosen;
    while Hashtbl.length chosen < k do
      Hashtbl.replace chosen (Random.State.int rng nvars) ()
    done;
    C.of_list (Hashtbl.fold draw_sign chosen [])
  in
  F.create ~nvars (List.init n_clauses (fun _ -> clause ()))

let pigeonhole ~holes =
  let pigeons = holes + 1 in
  let v p h = (p * holes) + h in
  let at_least = List.init pigeons (fun p -> C.of_list (List.init holes (fun h -> L.pos (v p h)))) in
  let at_most =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p2 > p1 then Some (C.of_list [ L.neg_of (v p1 h); L.neg_of (v p2 h) ])
                else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  F.create ~nvars:(pigeons * holes) (at_least @ at_most)

let parity_chain_xors ~vertices ~satisfiable ~rng =
  if vertices < 4 || vertices mod 2 <> 0 then
    invalid_arg "parity_chain: vertices must be even and >= 4";
  (* random 3-regular multigraph via a random perfect matching on stubs *)
  let degree = 3 in
  let stubs = Array.concat (List.init vertices (fun v -> Array.make degree v)) in
  for i = Array.length stubs - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = stubs.(i) in
    stubs.(i) <- stubs.(j);
    stubs.(j) <- t
  done;
  let n_edges = Array.length stubs / 2 in
  let incident = Array.make vertices [] in
  for e = 0 to n_edges - 1 do
    let a = stubs.(2 * e) and b = stubs.((2 * e) + 1) in
    incident.(a) <- e :: incident.(a);
    incident.(b) <- e :: incident.(b)
  done;
  (* vertex charges: random, then fixed up without further draws.  The
     formula is satisfiable iff every connected component has even
     charge: the SAT case flips the lowest vertex of each odd component,
     the UNSAT case flips vertex 0 if the total is even.  On a connected
     graph both flip vertex 0 exactly when the total has the wrong
     parity. *)
  let charges = Array.init vertices (fun _ -> Random.State.bool rng) in
  if satisfiable then begin
    (* union-find whose roots are each component's lowest vertex *)
    let low = Array.init vertices Fun.id in
    let rec root v = if low.(v) = v then v else root low.(v) in
    for e = 0 to n_edges - 1 do
      let ra = root stubs.(2 * e) and rb = root stubs.((2 * e) + 1) in
      low.(Int.max ra rb) <- Int.min ra rb
    done;
    let odd = Array.make vertices false in
    Array.iteri (fun v c -> if c then odd.(root v) <- not odd.(root v)) charges;
    Array.iteri (fun r o -> if o then charges.(r) <- not charges.(r)) odd
  end
  else begin
    let total = Array.fold_left (fun acc c -> acc <> c) false charges in
    if not total then charges.(0) <- not charges.(0)
  end;
  let xors =
    List.init vertices (fun v ->
        Sat.Xor_module.make_xor ~vars:incident.(v) ~parity:charges.(v))
  in
  (* self-loop edges cancel inside make_xor; a vertex equation may thus be
     narrower than 3.  That only weakens hardness slightly. *)
  ( F.create ~nvars:n_edges (List.concat_map Sat.Xor_module.clauses_of_xor xors),
    List.map
      (fun (x : Sat.Xor_module.xor) -> (x.Sat.Xor_module.vars, x.Sat.Xor_module.parity))
      xors )

let parity_chain ~vertices ~satisfiable ~rng =
  fst (parity_chain_xors ~vertices ~satisfiable ~rng)

let coloring ~vertices ~edges ~colors ~rng =
  let v vertex color = (vertex * colors) + color in
  let some_color =
    List.init vertices (fun x -> C.of_list (List.init colors (fun c -> L.pos (v x c))))
  in
  let edge_clauses = ref [] in
  let seen = Hashtbl.create edges in
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < edges && !attempts < edges * 20 do
    incr attempts;
    let a = Random.State.int rng vertices and b = Random.State.int rng vertices in
    if a <> b && not (Hashtbl.mem seen (min a b, max a b)) then begin
      Hashtbl.replace seen (min a b, max a b) ();
      incr added;
      for c = 0 to colors - 1 do
        edge_clauses := C.of_list [ L.neg_of (v a c); L.neg_of (v b c) ] :: !edge_clauses
      done
    end
  done;
  F.create ~nvars:(vertices * colors) (some_color @ !edge_clauses)

(* random circuit of AND/OR/XOR gates over [inputs] inputs; returns the
   gate list (op, a, b) where a,b index inputs or earlier gates *)
type gate_op = Gand | Gor | Gxor

let random_circuit ~inputs ~gates ~rng =
  List.init gates (fun g ->
      let range = inputs + g in
      let op =
        match Random.State.int rng 3 with 0 -> Gand | 1 -> Gor | _ -> Gxor
      in
      (op, Random.State.int rng range, Random.State.int rng range))

(* Tseitin-encode a circuit instance: signal s(i) for i < inputs is input
   variable [input_var i]; gate g's output is variable [gate_var g]. *)
let encode_circuit ~clauses ~input_var ~gate_var circuit =
  List.iteri
    (fun g (op, a, b) ->
      let sig_of i =
        if i < Array.length input_var then input_var.(i)
        else gate_var.(i - Array.length input_var)
      in
      let o = gate_var.(g) in
      let a = sig_of a and b = sig_of b in
      match op with
      | Gand ->
          clauses (C.of_list [ L.neg_of o; L.pos a ]);
          clauses (C.of_list [ L.neg_of o; L.pos b ]);
          clauses (C.of_list [ L.pos o; L.neg_of a; L.neg_of b ])
      | Gor ->
          clauses (C.of_list [ L.pos o; L.neg_of a ]);
          clauses (C.of_list [ L.pos o; L.neg_of b ]);
          clauses (C.of_list [ L.neg_of o; L.pos a; L.pos b ])
      | Gxor ->
          clauses (C.of_list [ L.neg_of o; L.pos a; L.pos b ]);
          clauses (C.of_list [ L.neg_of o; L.neg_of a; L.neg_of b ]);
          clauses (C.of_list [ L.pos o; L.pos a; L.neg_of b ]);
          clauses (C.of_list [ L.pos o; L.neg_of a; L.pos b ]))
    circuit

let miter ~inputs ~gates ~buggy ~rng =
  if inputs < 1 || gates < 1 then invalid_arg "miter: need inputs and gates";
  let circuit = random_circuit ~inputs ~gates ~rng in
  let copy =
    if not buggy then circuit
    else
      (* rewire the output gate's first input so the change is guaranteed
         to be in the output cone *)
      List.mapi
        (fun g (op, a, b) ->
          if g = gates - 1 then
            let a' = (a + 1 + Random.State.int rng (inputs + g - 1)) mod (inputs + g) in
            (op, a', b)
          else (op, a, b))
        circuit
  in
  let acc = ref [] in
  let clauses c = acc := c :: !acc in
  let input_var = Array.init inputs Fun.id in
  let gate_var1 = Array.init gates (fun g -> inputs + g) in
  let gate_var2 = Array.init gates (fun g -> inputs + gates + g) in
  encode_circuit ~clauses ~input_var ~gate_var:gate_var1 circuit;
  encode_circuit ~clauses ~input_var ~gate_var:gate_var2 copy;
  (* miter: the two final outputs differ *)
  let o1 = gate_var1.(gates - 1) and o2 = gate_var2.(gates - 1) in
  clauses (C.of_list [ L.pos o1; L.pos o2 ]);
  clauses (C.of_list [ L.neg_of o1; L.neg_of o2 ]);
  F.create ~nvars:(inputs + (2 * gates)) !acc
