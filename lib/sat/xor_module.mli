(** XOR-constraint recovery from CNF — the feature that distinguishes the
    CryptoMiniSat-style solver profile (the paper's Section I notes
    CryptoMiniSat5 "natively performs Gauss-Jordan elimination").

    A CNF encodes the constraint [x1 ⊕ ... ⊕ xk = parity] as the
    [2^(k-1)] clauses forbidding every assignment of the wrong parity;
    {!recover} detects complete such families.  The recovered rows are
    handed to {!Solver.add_xor}, whose {!Parity} engine Gauss-Jordan
    eliminates them at level 0 and propagates them during search. *)

type xor = { vars : int list; parity : bool }
(** [x1 ⊕ ... ⊕ xn = parity]; [vars] sorted, distinct, non-empty. *)

val make_xor : vars:int list -> parity:bool -> xor
(** Normalises: duplicated variables cancel.  Raises [Invalid_argument] if
    the variable list normalises to empty with [parity = false] being
    trivial — an empty-var XOR with parity [true] is represented and means
    inconsistency downstream. *)

val pp_xor : Format.formatter -> xor -> unit

(** [recover ?max_arity f] finds all XOR constraints of arity
    [2..max_arity] (default 5) whose full clause encoding appears in [f]. *)
val recover : ?max_arity:int -> Cnf.Formula.t -> xor list

(** [clauses_of_xor x] is the CNF encoding of [x]: [2^(k-1)] clauses. *)
val clauses_of_xor : xor -> Cnf.Clause.t list
