type sat_stage = {
  formula : Cnf.Formula.t;
  xors : (int list * bool) list;
  proof : Sat.Proof.step list;
}

type t = {
  input : Anf.Poly.t list;
  mutable sat_stages_rev : sat_stage list;
}

let create ~input = { input; sat_stages_rev = [] }
let record_sat_stage t stage = t.sat_stages_rev <- stage :: t.sat_stages_rev
let input t = t.input
let sat_stages t = List.rev t.sat_stages_rev
