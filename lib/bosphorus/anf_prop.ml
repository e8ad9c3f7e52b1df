module P = Anf.Poly

(* Union-find over literals, in flat arrays indexed by variable.
   parent.(x) = 2y + parity means x = y + parity, -1 marks a root; values
   (0 or 1, -1 when undetermined) are stored at the roots only.  A
   variable past the end of the arrays is an undetermined root. *)
type state = { mutable parent : int array; mutable value : int array }

let create () = { parent = Array.make 64 (-1); value = Array.make 64 (-1) }

let ensure state x =
  let cap = Array.length state.parent in
  if x >= cap then begin
    let n = max (2 * cap) (x + 1) in
    let parent = Array.make n (-1) and value = Array.make n (-1) in
    Array.blit state.parent 0 parent 0 cap;
    Array.blit state.value 0 value 0 cap;
    state.parent <- parent;
    state.value <- value
  end

(* The literal code (2 root + parity) of [x], compressing its path. *)
let rec find_lit state x =
  if x >= Array.length state.parent then 2 * x
  else
    let e = state.parent.(x) in
    if e < 0 then 2 * x
    else
      let lit = find_lit state (e lsr 1) lxor (e land 1) in
      if lit <> e then state.parent.(x) <- lit;
      lit

let root_value state r = if r < Array.length state.value then state.value.(r) else -1

let repr_of state x =
  let lit = find_lit state x in
  (lit lsr 1, lit land 1 = 1)

let value_of state x =
  let lit = find_lit state x in
  match root_value state (lit lsr 1) with
  | -1 -> None
  | v -> Some (v lxor (lit land 1) = 1)

(* Record [v] for [root] unless it already has a value. *)
let set_root_value state root v =
  match root_value state root with
  | -1 ->
      ensure state root;
      state.value.(root) <- v;
      `Ok
  | existing -> if existing = v then `Ok else `Conflict

let assign state x v =
  let lit = find_lit state x in
  set_root_value state (lit lsr 1) (Bool.to_int v lxor (lit land 1))

let equate state x y ~negated =
  let lx = find_lit state x and ly = find_lit state y in
  let rx = lx lsr 1 and ry = ly lsr 1 in
  (* x = y + negated  <=>  rx + px = ry + py + negated *)
  let parity = lx lxor ly lxor Bool.to_int negated land 1 in
  if rx = ry then if parity = 0 then `Ok else `Conflict
  else begin
    (* keep the smaller index as root for canonical output *)
    let root = min rx ry and child = max rx ry in
    ensure state child;
    state.parent.(child) <- (2 * root) + parity;
    (* migrate the child's value, if any *)
    match state.value.(child) with
    | -1 -> `Ok
    | v ->
        state.value.(child) <- -1;
        set_root_value state root (v lxor parity)
  end

(* The literal code (see Anf.Monomial.rewrite) [x] rewrites to: its value,
   else its root literal.  Roots without a value map to themselves. *)
let lit_code state x =
  let lit = find_lit state x in
  match root_value state (lit lsr 1) with
  | -1 -> lit
  | v -> Anf.Monomial.lit_zero + (v lxor (lit land 1))

let normalise state p = P.rewrite (lit_code state) p

let all_tracked state =
  let acc = ref [] in
  for x = Array.length state.parent - 1 downto 0 do
    if state.parent.(x) >= 0 || state.value.(x) >= 0 then acc := x :: !acc
  done;
  !acc

let assignments state =
  List.filter_map (fun x -> Option.map (fun v -> (x, v)) (value_of state x)) (all_tracked state)

let equivalences state =
  List.filter_map
    (fun x ->
      if value_of state x <> None then None
      else
        let root, parity = repr_of state x in
        if root = x then None else Some (x, root, parity))
    (all_tracked state)

let fact_polys state =
  List.map (fun (x, v) -> P.add (P.var x) (P.constant v)) (assignments state)
  @ List.map
      (fun (x, y, parity) -> P.add (P.add (P.var x) (P.var y)) (P.constant parity))
      (equivalences state)

let propagate state system =
  let module S = Anf.System in
  let contradiction = ref false in
  let queue = Queue.create () in
  (* one flag per id: is it in the queue? *)
  let queued = ref (Bytes.make 64 '\000') in
  let enqueue id =
    if id >= Bytes.length !queued then begin
      let wider = Bytes.make (max (2 * Bytes.length !queued) (id + 1)) '\000' in
      Bytes.blit !queued 0 wider 0 (Bytes.length !queued);
      queued := wider
    end;
    if Bytes.get !queued id = '\000' then begin
      Bytes.set !queued id '\001';
      Queue.add id queue
    end
  in
  S.iter system (fun id _ -> enqueue id);
  let enqueue_var x = List.iter enqueue (S.occurrences system x) in
  let fail () =
    contradiction := true;
    ignore (S.add system P.one);
    Queue.clear queue
  in
  let absorb outcome touched =
    match outcome with
    | `Conflict -> fail ()
    | `Ok ->
        (* polynomials already normalised mention the class root, not the
           touched variable itself, so wake both occurrence lists *)
        List.iter
          (fun x ->
            enqueue_var x;
            let root, _ = repr_of state x in
            if root <> x then enqueue_var root)
          touched
  in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    Bytes.set !queued id '\000';
    match S.find system id with
    | None -> ()
    | Some p ->
        let q = normalise state p in
        let new_id =
          if p == q || P.equal p q then Some id
          else begin
            (* replace the polynomial by its normalised form *)
            match S.replace system id q with
            | Some nid -> Some nid
            | None -> None (* zero or duplicate: drop *)
          end
        in
        (match new_id with
        | None -> ()
        | Some nid -> (
            match P.classify q with
            | P.Tautology -> S.remove system nid
            | P.Contradiction -> fail ()
            | P.Assign (x, v) ->
                S.remove system nid;
                absorb (assign state x v) [ x ]
            | P.Equiv (x, y, negated) ->
                S.remove system nid;
                absorb (equate state x y ~negated) [ x; y ]
            | P.All_ones xs ->
                S.remove system nid;
                List.iter
                  (fun x -> if not !contradiction then absorb (assign state x true) [ x ])
                  xs
            | P.Other -> ()))
  done;
  if !contradiction then `Contradiction else `Fixedpoint
