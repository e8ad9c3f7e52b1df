(* Seeded instance generation for the three workloads.  Every instance is
   a pure function of (seed, slot), so one seed always yields the same
   inputs. *)

let rng seed slot = Random.State.make [| 0xbe7c; seed; slot |]

(* ------------------------------------------------------------------ *)
(* anf-cipher                                                          *)
(* ------------------------------------------------------------------ *)

type cipher = { cname : string; equations : Anf.Poly.t list }

(* Simon-[4,5] and Speck-[4,4] under the SP/RC setting.  Both are decided
   inside the learning loop, and their run times vary little from key to
   key, so the pass total is steady across seeds.  Simon-[4,6] is left
   out: whether a key needs one or two loop iterations swings its run
   time between 4 and 16 s, and two such instances would dominate the
   pass. *)
let n_simon = 24
let n_speck = 12

let anf_cipher ~seed =
  List.init n_simon (fun i ->
      let inst = Ciphers.Simon.instance ~rounds:5 ~n_plaintexts:4 ~rng:(rng seed i) () in
      { cname = Printf.sprintf "simon-4-5-%d" i; equations = inst.Ciphers.Simon.equations })
  @ List.init n_speck (fun i ->
        let inst =
          Ciphers.Speck.instance ~rounds:4 ~n_plaintexts:4 ~rng:(rng seed (100 + i)) ()
        in
        { cname = Printf.sprintf "speck-4-4-%d" i; equations = inst.Ciphers.Speck.equations })

(* ------------------------------------------------------------------ *)
(* cnf-suite                                                           *)
(* ------------------------------------------------------------------ *)

(* The verdict a generator fixes by construction; [Open] verdicts are
   cross-checked against a direct solve of the original formula. *)
type expect = Sat | Unsat | Open

type cnf = { fname : string; formula : Cnf.Formula.t; expect : expect }

(* The twelve SAT-suite CNFs of the Table II bench, with the seed feeding
   every random generator.  colour-unsat needs 40 distinct edges on 12
   vertices, more than the 36 a bipartite graph can have, so it is never
   2-colourable. *)
let cnf_suite ~seed =
  let g slot = rng seed (200 + slot) in
  let open Problems.Generators in
  let mk fname expect formula = { fname; formula; expect } in
  [
    mk "ksat-1" Open (random_ksat ~nvars:120 ~n_clauses:500 ~k:3 ~rng:(g 0));
    mk "ksat-2" Open (random_ksat ~nvars:140 ~n_clauses:588 ~k:3 ~rng:(g 1));
    mk "ksat-hard" Open (random_ksat ~nvars:100 ~n_clauses:426 ~k:3 ~rng:(g 2));
    mk "php-7" Unsat (pigeonhole ~holes:7);
    mk "php-8" Unsat (pigeonhole ~holes:8);
    mk "parity-sat" Sat (parity_chain ~vertices:40 ~satisfiable:true ~rng:(g 3));
    mk "parity-unsat-1" Unsat (parity_chain ~vertices:40 ~satisfiable:false ~rng:(g 4));
    mk "parity-unsat-2" Unsat (parity_chain ~vertices:52 ~satisfiable:false ~rng:(g 5));
    mk "color-sat" Open (coloring ~vertices:24 ~edges:48 ~colors:4 ~rng:(g 6));
    mk "color-unsat" Unsat (coloring ~vertices:12 ~edges:40 ~colors:2 ~rng:(g 7));
    mk "miter-eq" Unsat (miter ~inputs:12 ~gates:60 ~buggy:false ~rng:(g 8));
    (* a rewired gate usually, but not always, changes the function *)
    mk "miter-bug" Open (miter ~inputs:12 ~gates:60 ~buggy:true ~rng:(g 9));
  ]

(* ------------------------------------------------------------------ *)
(* service-mix                                                         *)
(* ------------------------------------------------------------------ *)

type request = {
  system : int;  (** identity of the system: equal for every repeat *)
  polys : Anf.Poly.t list;
  text : string;
}

(* A random quadratic system, the generator of the bench's [service]
   experiment at 20 variables rather than 24: a miss still runs every
   stage of the loop but costs a few milliseconds, so one run holds
   several passes of 1000 requests and reports their median. *)
let quadratic_system r =
  let nvars = 20 in
  let var () = 1 + Random.State.int r nvars in
  let quad () = Anf.Poly.mul (Anf.Poly.var (var ())) (Anf.Poly.var (var ())) in
  let poly () =
    let q = List.fold_left (fun acc _ -> Anf.Poly.add acc (quad ())) Anf.Poly.zero
        (List.init (2 + Random.State.int r 3) Fun.id) in
    if Random.State.bool r then Anf.Poly.add q Anf.Poly.one else q
  in
  List.init (nvars - 4) (fun _ -> poly ())

let tenants = 2
let requests_per_tenant = 500
let hot_systems = 8
let hot_requests = 360

(* One closed-loop stream per tenant: [hot_requests] draws from a small
   hot set (the first draw of each hot system is a miss, the rest are
   cache hits) shuffled among fresh systems.  Each tenant has its own hot
   set, so whether a request hits never depends on how the two tenants
   interleave, and the hit count repeats exactly. *)
let service_streams ~seed =
  List.init tenants (fun t ->
      let r = rng seed (300 + t) in
      let make system =
        let polys = quadratic_system r in
        { system; polys; text = Anf.Anf_io.write_string polys }
      in
      let base = (t + 1) * 1_000_000 in
      let hot = Array.init hot_systems (fun i -> make (base + i)) in
      let stream =
        Array.init requests_per_tenant (fun j ->
            if j < hot_requests then hot.(Random.State.int r hot_systems)
            else make (base + hot_systems + j))
      in
      for j = Array.length stream - 1 downto 1 do
        let k = Random.State.int r (j + 1) in
        let x = stream.(j) in
        stream.(j) <- stream.(k);
        stream.(k) <- x
      done;
      Array.to_list stream)
