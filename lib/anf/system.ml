type id = int

module Ptbl = Hashtbl.Make (struct
  type t = Poly.t

  let equal = Poly.equal
  let hash = Poly.hash
end)

(* Occurrence index: for each variable, a growable array of ids in
   ascending order.  Ids are allocated in increasing order and never
   reused, so appending keeps each array sorted; removing a polynomial
   only decrements the live counts, and its dead ids are skipped and
   compacted away when the array is next read or grown. *)
type t = {
  mutable slots : Poly.t option array; (* id -> live polynomial *)
  mutable vars_of : int array array; (* id -> ascending variables, [||] once dead *)
  mutable next_id : int;
  mutable occ : int array array; (* variable -> ids, ascending, possibly dead *)
  mutable occ_len : int array; (* variable -> used prefix of occ.(x) *)
  mutable occ_live : int array; (* variable -> live ids among them *)
  present : id Ptbl.t; (* live polynomial -> its id *)
  mutable next_var : int; (* lowest never-used variable index *)
}

let grow t needed =
  let cap = Array.length t.slots in
  if needed >= cap then begin
    let n = max (2 * cap) (needed + 1) in
    let slots = Array.make n None and vars_of = Array.make n [||] in
    Array.blit t.slots 0 slots 0 cap;
    Array.blit t.vars_of 0 vars_of 0 cap;
    t.slots <- slots;
    t.vars_of <- vars_of
  end

let grow_vars t x =
  let cap = Array.length t.occ in
  if x >= cap then begin
    let n = max (2 * cap) (x + 1) in
    let occ = Array.make n [||] and len = Array.make n 0 and live = Array.make n 0 in
    Array.blit t.occ 0 occ 0 cap;
    Array.blit t.occ_len 0 len 0 cap;
    Array.blit t.occ_live 0 live 0 cap;
    t.occ <- occ;
    t.occ_len <- len;
    t.occ_live <- live
  end

let is_live t id =
  match Array.unsafe_get t.slots id with None -> false | Some _ -> true

(* Drop the dead ids of occ.(x) in place, keeping the order. *)
let rec compact_from t (ids : int array) i n k =
  if i >= n then k
  else
    let id = Array.unsafe_get ids i in
    if is_live t id then begin
      Array.unsafe_set ids k id;
      compact_from t ids (i + 1) n (k + 1)
    end
    else compact_from t ids (i + 1) n k

let compact t x =
  let n = Array.unsafe_get t.occ_len x in
  if Array.unsafe_get t.occ_live x < n then
    Array.unsafe_set t.occ_len x (compact_from t (Array.unsafe_get t.occ x) 0 n 0)

let occ_append t x id =
  let ids = Array.unsafe_get t.occ x in
  if Array.unsafe_get t.occ_len x >= Array.length ids then begin
    compact t x;
    let n = Array.unsafe_get t.occ_len x in
    (* grow only when compaction left the array at least half full *)
    if 2 * n >= Array.length ids then begin
      let wider = Array.make (max 4 (2 * Array.length ids)) 0 in
      Array.blit ids 0 wider 0 n;
      Array.unsafe_set t.occ x wider
    end
  end;
  let n = Array.unsafe_get t.occ_len x in
  Array.unsafe_set (Array.unsafe_get t.occ x) n id;
  Array.unsafe_set t.occ_len x (n + 1);
  Array.unsafe_set t.occ_live x (Array.unsafe_get t.occ_live x + 1)

let add t p =
  if Poly.is_zero p then None
  else if Ptbl.mem t.present p then None
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    grow t id;
    t.slots.(id) <- Some p;
    Ptbl.add t.present p id;
    let vars = Poly.vars_array p in
    t.vars_of.(id) <- vars;
    let n = Array.length vars in
    if n > 0 then begin
      grow_vars t vars.(n - 1);
      Array.iter (fun x -> occ_append t x id) vars
    end;
    t.next_var <- max t.next_var (Poly.max_var p + 1);
    Some id
  end

let create polys =
  let t =
    {
      slots = Array.make 16 None;
      vars_of = Array.make 16 [||];
      next_id = 0;
      occ = Array.make 16 [||];
      occ_len = Array.make 16 0;
      occ_live = Array.make 16 0;
      present = Ptbl.create 64;
      next_var = 0;
    }
  in
  List.iter (fun p -> ignore (add t p)) polys;
  t

let copy t =
  {
    slots = Array.copy t.slots;
    vars_of = Array.copy t.vars_of;
    next_id = t.next_id;
    occ = Array.map Array.copy t.occ;
    occ_len = Array.copy t.occ_len;
    occ_live = Array.copy t.occ_live;
    present = Ptbl.copy t.present;
    next_var = t.next_var;
  }

let size t = Ptbl.length t.present

let nvars t =
  let rec top x = if x < 0 || t.occ_live.(x) > 0 then x + 1 else top (x - 1) in
  top (Array.length t.occ_live - 1)

let fresh_var t =
  let x = t.next_var in
  t.next_var <- x + 1;
  x

let mem t p = Ptbl.mem t.present p

let remove t id =
  if id >= 0 && id < t.next_id then
    match t.slots.(id) with
    | None -> ()
    | Some p ->
        t.slots.(id) <- None;
        Ptbl.remove t.present p;
        Array.iter (fun x -> t.occ_live.(x) <- t.occ_live.(x) - 1) t.vars_of.(id);
        t.vars_of.(id) <- [||]

let replace t id p =
  remove t id;
  add t p

let find t id = if id >= 0 && id < t.next_id then t.slots.(id) else None

let occurrences t x =
  if x < 0 || x >= Array.length t.occ then []
  else begin
    compact t x;
    let ids = t.occ.(x) in
    let rec collect i acc = if i < 0 then acc else collect (i - 1) (ids.(i) :: acc) in
    collect (t.occ_len.(x) - 1) []
  end

let occurrence_count t x = if x < 0 || x >= Array.length t.occ_live then 0 else t.occ_live.(x)

let iter t f =
  for id = 0 to t.next_id - 1 do
    match t.slots.(id) with None -> () | Some p -> f id p
  done

let to_list t =
  let acc = ref [] in
  iter t (fun _ p -> acc := p :: !acc);
  List.rev !acc

let has_contradiction t = Ptbl.mem t.present Poly.one

let pp ppf t =
  let first = ref true in
  iter t (fun _ p ->
      if !first then first := false else Format.pp_print_newline ppf ();
      Poly.pp ppf p)
