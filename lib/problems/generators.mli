(** Generated CNF families standing in for the SAT Competition 2017 set
    (the original instances are not redistributable/offline; see
    DESIGN.md).  The families cover the same roles: random k-SAT around
    the phase transition, pigeonhole (hard UNSAT resolution lower bounds),
    XOR/parity chains (where Gauss–Jordan-style reasoning shines), graph
    colouring, and circuit-equivalence miters (hardware-verification
    style). *)

(** [random_ksat ~nvars ~n_clauses ~k ~rng] draws clauses uniformly (no
    tautologies, distinct variables within a clause). *)
val random_ksat : nvars:int -> n_clauses:int -> k:int -> rng:Random.State.t -> Cnf.Formula.t

(** [pigeonhole ~holes] is PHP(holes+1, holes): unsatisfiable. *)
val pigeonhole : holes:int -> Cnf.Formula.t

(** [parity_chain ~vertices ~satisfiable ~rng] is a Tseitin parity formula
    on a random 3-regular multigraph: one variable per edge, one XOR
    equation per vertex (the parity of its incident edges equals the
    vertex charge).  When [satisfiable], the charges of every connected
    component sum to 0 (the condition for a Tseitin formula to have a
    model); otherwise all charges sum to 1 — the classical
    resolution-hard family that GF(2) reasoning refutes by summing all
    equations.  [vertices] must be even and at least 4. *)
val parity_chain :
  vertices:int -> satisfiable:bool -> rng:Random.State.t -> Cnf.Formula.t

(** Like {!parity_chain}, but also returns the underlying XOR rows (one
    per vertex, variables sorted, self-loop pairs cancelled) — the ground
    truth to feed {!Sat.Solver.add_xor} in parity-engine tests and
    benchmarks.  Same RNG consumption as {!parity_chain}: identical seeds
    yield identical formulas. *)
val parity_chain_xors :
  vertices:int ->
  satisfiable:bool ->
  rng:Random.State.t ->
  Cnf.Formula.t * (int list * bool) list

(** [coloring ~vertices ~edges ~colors ~rng] encodes k-colourability of a
    random graph with the given edge count. *)
val coloring : vertices:int -> edges:int -> colors:int -> rng:Random.State.t -> Cnf.Formula.t

(** [miter ~inputs ~gates ~buggy ~rng] builds a random AND/XOR/OR circuit,
    a copy of it (with one gate rewired when [buggy]), and a miter
    asserting the two differ: UNSAT when the copy is faithful, usually SAT
    when [buggy]. *)
val miter : inputs:int -> gates:int -> buggy:bool -> rng:Random.State.t -> Cnf.Formula.t
