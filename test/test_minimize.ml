(* Tests for the two-level logic minimiser (Quine-McCluskey + cover). *)

module Cu = Minimize.Cube
module QM = Minimize.Quine_mccluskey
module E = Minimize.Espresso

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_cube_basics () =
  let c = Cu.make ~mask:0b101 ~value:0b100 in
  (* x2=1, x0=0, x1 free *)
  check "covers 100" true (Cu.covers c 0b100);
  check "covers 110" true (Cu.covers c 0b110);
  check "not 101" false (Cu.covers c 0b101);
  check_int "fixed" 2 (Cu.n_fixed c);
  Alcotest.(check (list (pair int bool)))
    "literals" [ (0, false); (2, true) ] (Cu.literals ~nvars:3 c);
  Alcotest.(check (list int)) "minterms" [ 0b100; 0b110 ] (List.sort Int.compare (Cu.minterms ~nvars:3 c))

let test_cube_make_invalid () =
  Alcotest.check_raises "value outside mask" (Invalid_argument "Cube.make: value outside mask")
    (fun () -> ignore (Cu.make ~mask:0b01 ~value:0b10))

(* the pairwise merge step of the reference minimiser (Minimize_oracle) *)
let test_cube_merge () =
  let module O = Minimize_oracle in
  let a = O.of_minterm ~nvars:3 0b101 and b = O.of_minterm ~nvars:3 0b100 in
  (match O.merge a b with
  | Some c ->
      check "covers both" true (Cu.covers c 0b101 && Cu.covers c 0b100);
      check_int "one bit freed" 2 (Cu.n_fixed c)
  | None -> Alcotest.fail "expected merge");
  (* differ in two bits: no merge *)
  check "no merge" true (O.merge (O.of_minterm ~nvars:3 0b101) (O.of_minterm ~nvars:3 0b110) = None)

let test_qm_full_function () =
  (* on-set = everything: single prime covering all *)
  match QM.prime_implicants ~nvars:2 [ 0; 1; 2; 3 ] with
  | [ c ] -> check_int "tautology cube" 0 (Cu.n_fixed c)
  | l -> Alcotest.failf "expected 1 prime, got %d" (List.length l)

let test_qm_xor_function () =
  (* XOR has no mergeable minterms: primes are the minterms themselves *)
  let primes = QM.prime_implicants ~nvars:2 [ 1; 2 ] in
  check_int "two primes" 2 (List.length primes);
  List.iter (fun c -> check_int "full cube" 2 (Cu.n_fixed c)) primes

let test_qm_classic_example () =
  (* Standard textbook: f(a,b,c,d) on-set {4,8,10,11,12,15} d.c. none.
     Known prime implicants count: 10,11,15 -> various; check cover
     correctness via Espresso below; here check primality: no prime is
     contained in another. *)
  let on = [ 4; 8; 10; 11; 12; 15 ] in
  let primes = QM.prime_implicants ~nvars:4 on in
  check "at least one" true (List.length primes > 0);
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if not (Cu.equal p q) then
            check "no prime contains another" false
              (List.for_all (fun m -> Cu.covers q m) (Cu.minterms ~nvars:4 p)))
        primes)
    primes

let test_espresso_exact_small () =
  (* f = a'b + ab' (xor): minimal cover has 2 cubes *)
  check_int "xor needs 2 cubes" 2 (List.length (E.minimise ~nvars:2 ~on_set:[ 1; 2 ]));
  (* f = a: 1 cube *)
  check_int "single literal" 1 (List.length (E.minimise ~nvars:2 ~on_set:[ 1; 3 ]));
  (* empty on-set: no cubes *)
  check_int "empty" 0 (List.length (E.minimise ~nvars:3 ~on_set:[]))

let test_espresso_verify () =
  let on = [ 4; 8; 10; 11; 12; 15 ] in
  let cover = E.minimise ~nvars:4 ~on_set:on in
  check "exact cover" true (E.verify ~nvars:4 ~on_set:on cover)

let test_espresso_karnaugh_paper_function () =
  (* Fig. 3 of the paper: the polynomial x1x3+x1+x2+x4+1 (our vars 0-based:
     a=x1,b=x2,c=x3,d=x4).  Its on-set (where the polynomial evaluates to 1,
     i.e. the FORBIDDEN assignments) yields a 6-clause CNF via minimising
     the on-set and negating each cube.  Check the minimised cover of the
     on-set has 6 cubes, matching the 6 clauses of Fig. 2 (left). *)
  let eval m =
    let a = m land 1 = 1 and b = m lsr 1 land 1 = 1 in
    let c = m lsr 2 land 1 = 1 and d = m lsr 3 land 1 = 1 in
    (a && c) <> a <> b <> d <> true
  in
  let on_set = List.filter eval (List.init 16 Fun.id) in
  let cover = E.minimise ~nvars:4 ~on_set in
  check "cover exact" true (E.verify ~nvars:4 ~on_set cover);
  check_int "six cubes as in Fig. 2" 6 (List.length cover)

(* property: minimise yields an exact cover of random on-sets *)
let prop_minimise_exact =
  QCheck.Test.make ~name:"espresso: cover exactly the on-set" ~count:300
    QCheck.(
      make
        Gen.(
          let* nvars = int_range 1 6 in
          let* on = list_size (int_bound 20) (int_bound ((1 lsl nvars) - 1)) in
          return (nvars, on)))
    (fun (nvars, on_set) ->
      let cover = E.minimise ~nvars ~on_set in
      E.verify ~nvars ~on_set cover)

let prop_minimise_no_worse_than_minterms =
  QCheck.Test.make ~name:"espresso: no larger than the minterm cover" ~count:300
    QCheck.(
      make
        Gen.(
          let* nvars = int_range 1 6 in
          let* on = list_size (int_bound 20) (int_bound ((1 lsl nvars) - 1)) in
          return (nvars, on)))
    (fun (nvars, on_set) ->
      let distinct = List.sort_uniq Int.compare on_set in
      List.length (E.minimise ~nvars ~on_set) <= List.length distinct)

(* ---- differential: Espresso against the reference minimiser ---- *)

module O = Minimize_oracle

let cubes = Alcotest.testable (Fmt.Dump.list (fun ppf (c : Cu.t) -> Fmt.pf ppf "(%d,%d)" c.mask c.value)) (List.equal Cu.equal)

let same_as_oracle ~nvars ~on_set =
  List.equal Cu.equal (QM.prime_implicants ~nvars on_set) (O.Quine_mccluskey.prime_implicants ~nvars on_set)
  && List.equal Cu.equal (E.minimise ~nvars ~on_set) (O.minimise ~nvars ~on_set)

(* every on-set over k <= 3 variables: 2^(2^k) functions each *)
let test_differential_exhaustive () =
  for nvars = 0 to 3 do
    let size = 1 lsl nvars in
    for f = 0 to (1 lsl size) - 1 do
      let on_set = List.filter (fun m -> f lsr m land 1 = 1) (List.init size Fun.id) in
      Alcotest.check cubes
        (Printf.sprintf "k=%d f=%d" nvars f)
        (O.minimise ~nvars ~on_set) (E.minimise ~nvars ~on_set);
      Alcotest.check cubes
        (Printf.sprintf "primes k=%d f=%d" nvars f)
        (O.Quine_mccluskey.prime_implicants ~nvars on_set)
        (QM.prime_implicants ~nvars on_set)
    done
  done

let print_case (nvars, on_set) =
  Printf.sprintf "k=%d on=[%s]" nvars (String.concat ";" (List.map string_of_int on_set))

let prop_differential_random =
  QCheck.Test.make ~name:"espresso = reference on random on-sets, k=4..8" ~count:300
    QCheck.(
      make ~print:print_case
        Gen.(
          let* nvars = int_range 4 8 in
          let* density = int_range 1 9 in
          let* bits = list_repeat (1 lsl nvars) (int_bound 9) in
          return (nvars, List.concat (List.mapi (fun m b -> if b < density then [ m ] else []) bits))))
    (fun (nvars, on_set) -> same_as_oracle ~nvars ~on_set)

(* on-sets of XOR pieces as the Karnaugh path builds them: a sum of up to
   5 monomials over k variables (each a bit mask), plus a parity *)
let prop_differential_polynomial =
  QCheck.Test.make ~name:"espresso = reference on polynomial on-sets, k=4..8" ~count:300
    QCheck.(
      make ~print:print_case
        Gen.(
          let* nvars = int_range 4 8 in
          let* terms = list_size (int_range 1 5) (int_range 1 ((1 lsl nvars) - 1)) in
          let* parity = bool in
          let value tm = List.fold_left (fun v t -> v <> (tm land t = t)) parity terms in
          return (nvars, List.filter value (List.init (1 lsl nvars) Fun.id))))
    (fun (nvars, on_set) -> same_as_oracle ~nvars ~on_set)

let test_qm_range () =
  Alcotest.check_raises "nvars above 8" (Invalid_argument "Quine_mccluskey: nvars out of range")
    (fun () -> ignore (QM.prime_implicants ~nvars:9 [ 0 ]));
  Alcotest.check_raises "minterm out of range" (Invalid_argument "Quine_mccluskey: minterm out of range")
    (fun () -> ignore (QM.prime_implicants ~nvars:3 [ 8 ]));
  (* the per-domain scratch table is clean after a rejected call *)
  Alcotest.check cubes "after rejection" (O.minimise ~nvars:8 ~on_set:[ 0; 1; 255 ]) (E.minimise ~nvars:8 ~on_set:[ 0; 1; 255 ])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_minimise_exact;
      prop_minimise_no_worse_than_minterms;
      prop_differential_random;
      prop_differential_polynomial;
    ]

let suite =
  [
    ( "minimize",
      [
        Alcotest.test_case "cube basics" `Quick test_cube_basics;
        Alcotest.test_case "cube invalid" `Quick test_cube_make_invalid;
        Alcotest.test_case "cube merge" `Quick test_cube_merge;
        Alcotest.test_case "QM full function" `Quick test_qm_full_function;
        Alcotest.test_case "QM xor" `Quick test_qm_xor_function;
        Alcotest.test_case "QM primality" `Quick test_qm_classic_example;
        Alcotest.test_case "exact small covers" `Quick test_espresso_exact_small;
        Alcotest.test_case "verify textbook cover" `Quick test_espresso_verify;
        Alcotest.test_case "paper Fig. 2/3 function" `Quick test_espresso_karnaugh_paper_function;
        Alcotest.test_case "QM range" `Quick test_qm_range;
        Alcotest.test_case "equals reference, all k <= 3" `Quick test_differential_exhaustive;
      ] );
    ("minimize.properties", qcheck_cases);
  ]
