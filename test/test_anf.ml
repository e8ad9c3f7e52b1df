(* Tests for the ANF substrate: monomials, polynomials, systems, io, eval. *)

module M = Anf.Monomial
module P = Anf.Poly

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let poly = Anf.Anf_io.poly_of_string
let pstr p = P.to_string p

(* ------------------------------------------------------------------ *)
(* Monomial                                                            *)
(* ------------------------------------------------------------------ *)

let test_mono_basics () =
  check "one is one" true (M.is_one M.one);
  check_int "degree one" 0 (M.degree M.one);
  check_int "degree var" 1 (M.degree (M.var 3));
  check_int "degree product" 3 (M.degree (M.of_vars [ 5; 1; 3 ]));
  Alcotest.(check (list int)) "vars sorted" [ 1; 3; 5 ] (M.vars (M.of_vars [ 5; 1; 3 ]));
  check "x*x = x" true (M.equal (M.var 2) (M.mul (M.var 2) (M.var 2)));
  check "contains" true (M.contains (M.of_vars [ 1; 3 ]) 3);
  check "not contains" false (M.contains (M.of_vars [ 1; 3 ]) 2);
  check_int "max_var of 1" (-1) (M.max_var M.one);
  check_int "max_var" 7 (M.max_var (M.of_vars [ 2; 7 ]))

let test_mono_mul_merge () =
  let a = M.of_vars [ 1; 4; 9 ] and b = M.of_vars [ 2; 4; 10 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 4; 9; 10 ] (M.vars (M.mul a b))

let test_mono_divides () =
  check "1 divides all" true (M.divides M.one (M.of_vars [ 3 ]));
  check "subset divides" true (M.divides (M.of_vars [ 1; 3 ]) (M.of_vars [ 1; 2; 3 ]));
  check "non-subset" false (M.divides (M.of_vars [ 1; 4 ]) (M.of_vars [ 1; 2; 3 ]))

let test_mono_order_graded () =
  (* Graded order: degree first, then ascending lex, matching the paper's
     polynomial display convention. *)
  let ms =
    [ M.one; M.var 1; M.var 2; M.var 3; M.of_vars [ 1; 2 ]; M.of_vars [ 1; 3 ];
      M.of_vars [ 2; 3 ]; M.of_vars [ 1; 2; 3 ] ]
  in
  let sorted = List.sort M.compare ms in
  check_str "graded order" "x1*x2*x3 x1*x2 x1*x3 x2*x3 x1 x2 x3 1"
    (String.concat " " (List.map M.to_string sorted))

let test_mono_remove_var () =
  let m = M.of_vars [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "removed" [ 1; 3 ] (M.vars (M.remove_var m 2));
  check "absent is identity" true (M.equal m (M.remove_var m 9))

let test_mono_negative_rejected () =
  Alcotest.check_raises "var -1" (Invalid_argument "Monomial.var") (fun () ->
      ignore (M.var (-1)))

(* ------------------------------------------------------------------ *)
(* Poly                                                                *)
(* ------------------------------------------------------------------ *)

let test_poly_parse_print_roundtrip () =
  let cases =
    [ "0"; "1"; "x1"; "x1 + 1"; "x1*x2 + x3 + x4 + 1"; "x1*x2*x3 + x1 + x3 + 1" ]
  in
  List.iter (fun s -> check_str s s (pstr (poly s))) cases

(* to_string, pp and write_string share one renderer *)
let test_poly_render () =
  let x0x1 = M.of_vars [ 0; 1 ] in
  let p = P.of_monomials [ x0x1; M.var 2; M.one ] in
  check_str "zero" "0" (P.to_string P.zero);
  check_str "one" "1" (P.to_string P.one);
  check_str "monomial" "x0*x1" (M.to_string x0x1);
  check_str "constant monomial" "1" (M.to_string M.one);
  check_str "x0*x1 + x2 + 1" "x0*x1 + x2 + 1" (P.to_string p);
  check_str "pp" (P.to_string p) (Format.asprintf "%a" P.pp p);
  check_str "monomial pp" "x0*x1" (Format.asprintf "%a" M.pp x0x1);
  let polys = [ p; P.zero; P.one; P.var 17; poly "x3*x12*x40 + x5" ] in
  let text = Anf.Anf_io.write_string polys in
  check_str "write_string" "x0*x1 + x2 + 1\n0\n1\nx17\nx3*x12*x40 + x5\n" text;
  check_str "empty system" "\n" (Anf.Anf_io.write_string []);
  (* "0" is a comment-free line that parses back to the zero polynomial *)
  check "parse_string . write_string" true
    (List.equal P.equal polys (Anf.Anf_io.parse_string text))

let test_poly_add_cancels () =
  let p = poly "x1*x2 + x3" in
  check "p+p = 0" true (P.is_zero (P.add p p));
  check_str "partial cancel" "x1*x2 + x4"
    (pstr (P.add (poly "x1*x2 + x3") (poly "x3 + x4")))

let test_poly_mul () =
  (* (x1+1)(x1+1) = x1^2 + x1 + x1 + 1 = x1 + 1 under x^2=x *)
  check_str "square of x1+1" "x1 + 1" (pstr (P.mul (poly "x1 + 1") (poly "x1 + 1")));
  check_str "distribute" "x1*x2 + x1*x3" (pstr (P.mul (poly "x1") (poly "x2 + x3")));
  check "mul by zero" true (P.is_zero (P.mul (poly "x1 + x2") P.zero));
  (* Paper, Section II-C: (x2+x3)*x2 + x2x3 + 1 simplifies to x2 + 1 *)
  let elim = P.add (P.mul (poly "x2 + x3") (poly "x2")) (poly "x2*x3 + 1") in
  check_str "ElimLin example simplification" "x2 + 1" (pstr elim)

let test_poly_subst () =
  (* Substitute x1 := x2 + x3 in x1x2 + x2x3 + 1 (paper II-C) gives x2+1. *)
  let p = poly "x1*x2 + x2*x3 + 1" in
  check_str "subst" "x2 + 1" (pstr (P.subst p ~target:1 ~by:(poly "x2 + x3")));
  (* assigning x2 = 1 in x1x2 + x2x3 + 1 gives x1 + x3 + 1 *)
  check_str "assign" "x1 + x3 + 1" (pstr (P.assign p ~target:2 ~value:true));
  check "subst absent var is identity" true
    (P.equal p (P.subst p ~target:9 ~by:(poly "x2")))

let test_poly_degree_terms () =
  let p = poly "x1*x2*x3 + x2 + 1" in
  check_int "degree" 3 (P.degree p);
  check_int "terms" 3 (P.n_terms p);
  check "has constant" true (P.has_constant_term p);
  check "no constant" false (P.has_constant_term (poly "x1 + x2"));
  check_str "leading" "x1*x2*x3" (M.to_string (P.leading p));
  check "linear" false (P.is_linear p);
  check "linear yes" true (P.is_linear (poly "x1 + x2 + 1"))

let test_poly_classify () =
  let open P in
  check "tautology" true (classify zero = Tautology);
  check "contradiction" true (classify one = Contradiction);
  check "assign 0" true (classify (poly "x3") = Assign (3, false));
  check "assign 1" true (classify (poly "x3 + 1") = Assign (3, true));
  check "equiv" true (classify (poly "x2 + x5") = Equiv (5, 2, false));
  check "negated equiv" true (classify (poly "x2 + x5 + 1") = Equiv (5, 2, true));
  check "all ones" true (classify (poly "x1*x2*x4 + 1") = All_ones [ 1; 2; 4 ]);
  check "other" true (classify (poly "x1*x2 + x3") = Other);
  check "other: monomial=0" true (classify (poly "x1*x2") = Other)

let test_poly_eval () =
  let p = poly "x1*x2 + x3 + 1" in
  let env a b c = fun x -> if x = 1 then a else if x = 2 then b else c in
  check "1*1+1+1=1" true (P.eval (env true true true) p);
  check "1*1+0+1=0" false (P.eval (env true true false) p);
  check "0*1+0+1=1" true (P.eval (env false true false) p)

(* ------------------------------------------------------------------ *)
(* System                                                              *)
(* ------------------------------------------------------------------ *)

let test_system_dedup_and_zero () =
  let s = Anf.System.create [ poly "x1 + x2"; poly "x1 + x2"; P.zero ] in
  check_int "duplicates and zero dropped" 1 (Anf.System.size s)

let test_system_occurrence_lists () =
  let s = Anf.System.create [ poly "x1*x2 + x3"; poly "x2 + x4"; poly "x5" ] in
  check_int "x2 occurs twice" 2 (List.length (Anf.System.occurrences s 2));
  check_int "x5 occurs once" 1 (List.length (Anf.System.occurrences s 5));
  check_int "x9 never" 0 (List.length (Anf.System.occurrences s 9));
  (* removing updates occurrences *)
  (match Anf.System.occurrences s 4 with
  | [ id ] ->
      Anf.System.remove s id;
      check_int "x2 now once" 1 (List.length (Anf.System.occurrences s 2))
  | _ -> Alcotest.fail "expected exactly one equation with x4")

let test_system_replace () =
  let s = Anf.System.create [ poly "x1 + x2" ] in
  match Anf.System.occurrences s 1 with
  | [ id ] ->
      let new_id = Anf.System.replace s id (poly "x1 + 1") in
      check "replaced" true (new_id <> None);
      check "old gone" true (Anf.System.find s id = None);
      check_int "size still 1" 1 (Anf.System.size s);
      check_int "x2 unreferenced" 0 (List.length (Anf.System.occurrences s 2))
  | _ -> Alcotest.fail "expected one equation"

let test_system_contradiction () =
  let s = Anf.System.create [ poly "x1" ] in
  check "no contradiction" false (Anf.System.has_contradiction s);
  ignore (Anf.System.add s P.one);
  check "contradiction" true (Anf.System.has_contradiction s)

let test_system_copy_independent () =
  let s = Anf.System.create [ poly "x1 + x2" ] in
  let s2 = Anf.System.copy s in
  ignore (Anf.System.add s2 (poly "x3 + 1"));
  check_int "copy grew" 2 (Anf.System.size s2);
  check_int "original unchanged" 1 (Anf.System.size s);
  check_int "occurrences tracked in copy" 1 (List.length (Anf.System.occurrences s2 3));
  check_int "not in original" 0 (List.length (Anf.System.occurrences s 3))

let test_system_fresh_var () =
  let s = Anf.System.create [ poly "x7 + x2" ] in
  let v = Anf.System.fresh_var s in
  check "fresh beyond max" true (v >= 8);
  let v2 = Anf.System.fresh_var s in
  check "fresh increments" true (v2 > v)

(* ------------------------------------------------------------------ *)
(* Io and Eval                                                         *)
(* ------------------------------------------------------------------ *)

let test_io_comments_and_blanks () =
  let text = "c a comment\n# another\n\nx1 + x2\nx2 + 1\n" in
  check_int "two polys" 2 (List.length (Anf.Anf_io.parse_string text))

let test_io_parse_errors () =
  let expect_fail s =
    match Anf.Anf_io.poly_of_string s with
    | exception Anf.Anf_io.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  List.iter expect_fail
    [ "x"; "+ x1"; "x1 *"; "x1 x2"; "y3"; ""; "x99999999999999999999"; "x(99999999999999999999) + 1" ]

let test_io_xor_synonym () =
  check "^ parses as +" true (P.equal (poly "x1 ^ x2") (poly "x1 + x2"))

let test_io_parenthesised_vars () =
  (* the original Bosphorus tool writes x(3)*x(4) *)
  check "x(3) form" true (P.equal (poly "x(1)*x(2) + x(3) + 1") (poly "x1*x2 + x3 + 1"));
  (match Anf.Anf_io.poly_of_string "x(3" with
  | exception Anf.Anf_io.Parse_error _ -> ()
  | _ -> Alcotest.fail "unclosed parenthesis accepted")

let test_eval_example_system () =
  (* System (1) of the paper; unique solution x1..x4=1, x5=0 per Section II-E *)
  let system =
    List.map poly
      [
        "x1*x2 + x3 + x4 + 1";
        "x1*x2*x3 + x1 + x3 + 1";
        "x1*x3 + x3*x4*x5 + x3";
        "x2*x3 + x3*x5 + 1";
        "x2*x3 + x5 + 1";
      ]
  in
  match Anf.Eval.all_solutions system with
  | [ sol ] ->
      List.iter
        (fun (x, v) ->
          check (Printf.sprintf "x%d" x) (if x = 5 then false else true) v)
        sol
  | sols -> Alcotest.failf "expected unique solution, got %d" (List.length sols)

let test_eval_unsat () =
  check "x1 and x1+1 unsat" false
    (Anf.Eval.solution_exists [ poly "x1"; poly "x1 + 1" ]);
  check "1=0 unsat" false (Anf.Eval.solution_exists [ P.one ])

let test_eval_count () =
  (* x1 + x2 = 0 has 2 solutions over {x1,x2} *)
  check_int "xor constraint" 2 (Anf.Eval.count_solutions [ poly "x1 + x2" ])

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let mono_gen =
  QCheck.Gen.(map M.of_vars (list_size (int_bound 4) (int_bound 7)))

let poly_gen = QCheck.Gen.(map P.of_monomials (list_size (int_bound 8) mono_gen))

(* Monomial order and equality against a list model: degree descending,
   then the ascending variable lists lexicographically. *)
let prop_mono_compare_model =
  let arb = QCheck.(pair (make mono_gen) (make mono_gen)) in
  QCheck.Test.make ~name:"monomial: compare/equal = list model" ~count:500 arb
    (fun (a, b) ->
      let la = M.vars a and lb = M.vars b in
      let model =
        match Int.compare (List.length lb) (List.length la) with
        | 0 -> List.compare Int.compare la lb
        | c -> c
      in
      M.compare a b = model
      && M.compare b a = -model
      && M.equal a b = (la = lb)
      && M.equal a a)

let arb_poly = QCheck.make ~print:pstr poly_gen

let total_env seed x = Hashtbl.hash (seed, x) land 1 = 1

let prop_add_comm =
  QCheck.Test.make ~name:"poly: add commutative" ~count:300
    QCheck.(pair arb_poly arb_poly)
    (fun (a, b) -> P.equal (P.add a b) (P.add b a))

let prop_add_assoc =
  QCheck.Test.make ~name:"poly: add associative" ~count:300
    QCheck.(triple arb_poly arb_poly arb_poly)
    (fun (a, b, c) -> P.equal (P.add (P.add a b) c) (P.add a (P.add b c)))

let prop_mul_comm =
  QCheck.Test.make ~name:"poly: mul commutative" ~count:300
    QCheck.(pair arb_poly arb_poly)
    (fun (a, b) -> P.equal (P.mul a b) (P.mul b a))

let prop_mul_assoc =
  QCheck.Test.make ~name:"poly: mul associative" ~count:100
    QCheck.(triple arb_poly arb_poly arb_poly)
    (fun (a, b, c) -> P.equal (P.mul (P.mul a b) c) (P.mul a (P.mul b c)))

let prop_distrib =
  QCheck.Test.make ~name:"poly: mul distributes over add" ~count:200
    QCheck.(triple arb_poly arb_poly arb_poly)
    (fun (a, b, c) -> P.equal (P.mul a (P.add b c)) (P.add (P.mul a b) (P.mul a c)))

let prop_idempotent_square =
  QCheck.Test.make ~name:"poly: p*p = p (Boolean ring)" ~count:300 arb_poly (fun p ->
      P.equal (P.mul p p) p)

let prop_eval_homomorphism =
  QCheck.Test.make ~name:"poly: eval is a ring homomorphism" ~count:300
    QCheck.(triple arb_poly arb_poly int)
    (fun (a, b, seed) ->
      let env = total_env seed in
      P.eval env (P.add a b) = (P.eval env a <> P.eval env b)
      && P.eval env (P.mul a b) = (P.eval env a && P.eval env b))

let prop_subst_agrees_with_eval =
  QCheck.Test.make ~name:"poly: subst agrees with eval" ~count:300
    QCheck.(triple arb_poly arb_poly int)
    (fun (p, by, seed) ->
      let env = total_env seed in
      let target = 3 in
      let env' x = if x = target then P.eval env by else env x in
      P.eval env (P.subst p ~target ~by) = P.eval env' p)

let prop_parse_print_roundtrip =
  QCheck.Test.make ~name:"io: parse(print(p)) = p" ~count:300 arb_poly (fun p ->
      P.equal p (poly (pstr p)))

let prop_classify_sound =
  QCheck.Test.make ~name:"poly: classify is sound wrt solutions" ~count:300 arb_poly
    (fun p ->
      match P.classify p with
      | P.Tautology -> P.is_zero p
      | P.Contradiction -> not (Anf.Eval.solution_exists [ p ])
      | P.Assign (x, v) ->
          List.for_all (fun sol -> List.assoc x sol = v) (Anf.Eval.all_solutions [ p ])
      | P.Equiv (x, y, negated) ->
          List.for_all
            (fun sol -> List.assoc x sol = (List.assoc y sol <> negated))
            (Anf.Eval.all_solutions [ p ])
      | P.All_ones xs ->
          List.for_all
            (fun sol -> List.for_all (fun x -> List.assoc x sol) xs)
            (Anf.Eval.all_solutions [ p ])
      | P.Other -> true)

let prop_subst_oracle =
  QCheck.Test.make ~name:"poly: subst = sort-everything subst" ~count:500
    QCheck.(triple arb_poly arb_poly (int_bound 7))
    (fun (p, by, target) -> P.equal (P.subst p ~target ~by) (Anf_oracle.subst p ~target ~by))

let prop_vars_oracle =
  QCheck.Test.make ~name:"poly: vars = set model" ~count:500 arb_poly (fun p ->
      P.vars p = Anf_oracle.vars p && Array.to_list (P.vars_array p) = Anf_oracle.vars p)

(* Anf.System against a list model: random add/remove/replace/copy
   sequences over a handful of variables, checking every observable after
   each step.  [Copy] continues on the copy and keeps checking the
   original against its own frozen model. *)
type sys_op = Add of P.t | Remove of int | Replace of int * P.t | Copy

let sys_op_gen =
  let small_poly =
    QCheck.Gen.(map P.of_monomials (list_size (int_bound 3) (map M.of_vars (list_size (int_bound 3) (int_bound 5)))))
  in
  QCheck.Gen.(
    frequency
      [
        (4, map (fun p -> Add p) small_poly);
        (2, map (fun i -> Remove i) (int_bound 30));
        (2, map2 (fun i p -> Replace (i, p)) (int_bound 30) small_poly);
        (1, return Copy);
      ])

let sys_op_print = function
  | Add p -> "add " ^ pstr p
  | Remove i -> Printf.sprintf "remove %d" i
  | Replace (i, p) -> Printf.sprintf "replace %d %s" i (pstr p)
  | Copy -> "copy"

(* the model: live (id, poly) pairs in ascending id order, and the next id *)
let model_add (live, next) p =
  if P.is_zero p || List.exists (fun (_, q) -> P.equal p q) live then ((live, next), None)
  else ((live @ [ (next, p) ], next + 1), Some next)

let model_remove (live, next) id = (List.filter (fun (i, _) -> i <> id) live, next)

let model_agrees s (live, _) =
  let ok = ref true in
  let expect b = if not b then ok := false in
  expect (Anf.System.size s = List.length live);
  expect (List.for_all2 P.equal (Anf.System.to_list s) (List.map snd live));
  let max_var = List.fold_left (fun acc (_, p) -> max acc (P.max_var p)) (-1) live in
  expect (Anf.System.nvars s = max_var + 1);
  for x = 0 to 6 do
    let ids = List.filter_map (fun (i, p) -> if P.contains_var p x then Some i else None) live in
    expect (Anf.System.occurrences s x = ids);
    expect (Anf.System.occurrence_count s x = List.length ids)
  done;
  List.iter (fun (i, p) -> expect (Option.map (P.equal p) (Anf.System.find s i) = Some true)) live;
  !ok

let prop_system_model =
  QCheck.Test.make ~name:"system: add/remove/replace/copy = list model" ~count:300
    QCheck.(make ~print:(QCheck.Print.list sys_op_print) (QCheck.Gen.list_size (QCheck.Gen.int_bound 40) sys_op_gen))
    (fun ops ->
      let s = ref (Anf.System.create []) and model = ref ([], 0) in
      let frozen = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | Add p ->
              let m, id = model_add !model p in
              model := m;
              if Anf.System.add !s p <> id then QCheck.Test.fail_report "add id"
          | Remove i ->
              model := model_remove !model i;
              Anf.System.remove !s i
          | Replace (i, p) ->
              let m, id = model_add (model_remove !model i) p in
              model := m;
              if Anf.System.replace !s i p <> id then QCheck.Test.fail_report "replace id"
          | Copy ->
              frozen := (!s, !model) :: !frozen;
              s := Anf.System.copy !s);
          model_agrees !s !model && List.for_all (fun (s, m) -> model_agrees s m) !frozen)
        ops)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_subst_oracle;
      prop_vars_oracle;
      prop_system_model;
      prop_mono_compare_model;
      prop_add_comm;
      prop_add_assoc;
      prop_mul_comm;
      prop_mul_assoc;
      prop_distrib;
      prop_idempotent_square;
      prop_eval_homomorphism;
      prop_subst_agrees_with_eval;
      prop_parse_print_roundtrip;
      prop_classify_sound;
    ]

let suite =
  [
    ( "anf.monomial",
      [
        Alcotest.test_case "basics" `Quick test_mono_basics;
        Alcotest.test_case "mul merges" `Quick test_mono_mul_merge;
        Alcotest.test_case "divides" `Quick test_mono_divides;
        Alcotest.test_case "graded monomial order" `Quick test_mono_order_graded;
        Alcotest.test_case "remove_var" `Quick test_mono_remove_var;
        Alcotest.test_case "negative var rejected" `Quick test_mono_negative_rejected;
      ] );
    ( "anf.poly",
      [
        Alcotest.test_case "print/parse roundtrip" `Quick test_poly_parse_print_roundtrip;
        Alcotest.test_case "render golden and write/parse" `Quick test_poly_render;
        Alcotest.test_case "add cancels" `Quick test_poly_add_cancels;
        Alcotest.test_case "mul" `Quick test_poly_mul;
        Alcotest.test_case "subst/assign" `Quick test_poly_subst;
        Alcotest.test_case "degree and terms" `Quick test_poly_degree_terms;
        Alcotest.test_case "classify shapes" `Quick test_poly_classify;
        Alcotest.test_case "eval" `Quick test_poly_eval;
      ] );
    ( "anf.system",
      [
        Alcotest.test_case "dedup and zero" `Quick test_system_dedup_and_zero;
        Alcotest.test_case "occurrence lists" `Quick test_system_occurrence_lists;
        Alcotest.test_case "replace" `Quick test_system_replace;
        Alcotest.test_case "contradiction" `Quick test_system_contradiction;
        Alcotest.test_case "copy independence" `Quick test_system_copy_independent;
        Alcotest.test_case "fresh var" `Quick test_system_fresh_var;
      ] );
    ( "anf.io_eval",
      [
        Alcotest.test_case "comments and blanks" `Quick test_io_comments_and_blanks;
        Alcotest.test_case "parse errors" `Quick test_io_parse_errors;
        Alcotest.test_case "^ synonym" `Quick test_io_xor_synonym;
        Alcotest.test_case "x(i) variable form" `Quick test_io_parenthesised_vars;
        Alcotest.test_case "paper system (1) unique solution" `Quick test_eval_example_system;
        Alcotest.test_case "unsat detection" `Quick test_eval_unsat;
        Alcotest.test_case "solution counting" `Quick test_eval_count;
      ] );
    ("anf.properties", qcheck_cases);
  ]
