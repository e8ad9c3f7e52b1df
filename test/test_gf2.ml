(* Tests for the GF(2) linear-algebra substrate: Bitvec and Matrix. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Bitvec unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_bitvec_create_zero () =
  let v = Gf2.Bitvec.create 200 in
  check_int "length" 200 (Gf2.Bitvec.length v);
  check "all zero" true (Gf2.Bitvec.is_zero v);
  check_int "popcount" 0 (Gf2.Bitvec.popcount v)

let test_bitvec_set_get () =
  let v = Gf2.Bitvec.create 130 in
  Gf2.Bitvec.set v 0 true;
  Gf2.Bitvec.set v 62 true;
  Gf2.Bitvec.set v 63 true;
  Gf2.Bitvec.set v 129 true;
  check "bit 0" true (Gf2.Bitvec.get v 0);
  check "bit 62" true (Gf2.Bitvec.get v 62);
  check "bit 63 (word boundary)" true (Gf2.Bitvec.get v 63);
  check "bit 129" true (Gf2.Bitvec.get v 129);
  check "bit 1" false (Gf2.Bitvec.get v 1);
  check_int "popcount" 4 (Gf2.Bitvec.popcount v);
  Gf2.Bitvec.set v 63 false;
  check "bit 63 cleared" false (Gf2.Bitvec.get v 63);
  check_int "popcount after clear" 3 (Gf2.Bitvec.popcount v)

let test_bitvec_flip () =
  let v = Gf2.Bitvec.create 10 in
  Gf2.Bitvec.flip v 3;
  check "flipped on" true (Gf2.Bitvec.get v 3);
  Gf2.Bitvec.flip v 3;
  check "flipped off" false (Gf2.Bitvec.get v 3)

let test_bitvec_out_of_range () =
  let v = Gf2.Bitvec.create 8 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitvec: index out of range") (fun () ->
      ignore (Gf2.Bitvec.get v (-1)));
  Alcotest.check_raises "get 8" (Invalid_argument "Bitvec: index out of range") (fun () ->
      ignore (Gf2.Bitvec.get v 8));
  Alcotest.check_raises "negative length" (Invalid_argument "Bitvec.create") (fun () ->
      ignore (Gf2.Bitvec.create (-1)))

let test_bitvec_xor () =
  let a = Gf2.Bitvec.of_list 100 [ 1; 50; 99 ] in
  let b = Gf2.Bitvec.of_list 100 [ 1; 60 ] in
  Gf2.Bitvec.xor_into ~src:b ~dst:a;
  Alcotest.(check (list int)) "xor result" [ 50; 60; 99 ] (Gf2.Bitvec.to_list a);
  (* b unchanged *)
  Alcotest.(check (list int)) "src untouched" [ 1; 60 ] (Gf2.Bitvec.to_list b)

let test_bitvec_xor_length_mismatch () =
  let a = Gf2.Bitvec.create 10 and b = Gf2.Bitvec.create 11 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitvec.xor_into: length mismatch")
    (fun () -> Gf2.Bitvec.xor_into ~src:a ~dst:b)

let test_bitvec_first_set () =
  let v = Gf2.Bitvec.create 200 in
  check "none" true (Gf2.Bitvec.first_set v = None);
  Gf2.Bitvec.set v 150 true;
  check "150" true (Gf2.Bitvec.first_set v = Some 150);
  Gf2.Bitvec.set v 7 true;
  check "7" true (Gf2.Bitvec.first_set v = Some 7)

let test_bitvec_of_list_toggles () =
  (* duplicates toggle, matching GF(2) addition of unit vectors *)
  let v = Gf2.Bitvec.of_list 10 [ 3; 3; 5 ] in
  Alcotest.(check (list int)) "duplicate cancels" [ 5 ] (Gf2.Bitvec.to_list v)

let test_bitvec_copy_independent () =
  let a = Gf2.Bitvec.of_list 10 [ 2 ] in
  let b = Gf2.Bitvec.copy a in
  Gf2.Bitvec.set b 4 true;
  check "copy has bit" true (Gf2.Bitvec.get b 4);
  check "original unchanged" false (Gf2.Bitvec.get a 4);
  check "equal after undo" false (Gf2.Bitvec.equal a b)

let test_bitvec_fold_iter () =
  let v = Gf2.Bitvec.of_list 300 [ 0; 63; 64; 127; 128; 299 ] in
  let collected = ref [] in
  Gf2.Bitvec.iter_set v (fun i -> collected := i :: !collected);
  Alcotest.(check (list int)) "iter ascending" [ 0; 63; 64; 127; 128; 299 ]
    (List.rev !collected);
  check_int "fold count" 6 (Gf2.Bitvec.fold_set v 0 (fun acc _ -> acc + 1))

(* One row's window through [Matrix.windows] on a one-row matrix. *)
let window v ~lo ~width =
  let out = [| -1 |] in
  Gf2.Matrix.windows (Gf2.Matrix.of_rows ~cols:(Gf2.Bitvec.length v) [ v ]) ~lo ~width out;
  out.(0)

(* [windows] against bit-by-bit [get], for every start and width on
   vectors whose lengths sit around the 63-bit word boundaries, so
   windows inside a word, ending on a boundary and straddling one are
   all covered. *)
let test_bitvec_window_model () =
  let rng = Random.State.make [| 5 |] in
  List.iter
    (fun len ->
      let v = Gf2.Bitvec.create len in
      for i = 0 to len - 1 do
        if Random.State.bool rng then Gf2.Bitvec.set v i true
      done;
      for lo = 0 to len do
        for width = 0 to Int.min (Sys.int_size - 1) (len - lo) do
          let expect = ref 0 in
          for j = width - 1 downto 0 do
            expect := (!expect lsl 1) lor Bool.to_int (Gf2.Bitvec.get v (lo + j))
          done;
          if window v ~lo ~width <> !expect then
            Alcotest.failf "len %d lo %d width %d" len lo width
        done
      done)
    [ 1; 6; 62; 63; 64; 125; 126; 127; 130; 200 ]

let test_bitvec_window_boundaries () =
  let v = Gf2.Bitvec.of_list 190 [ 61; 62; 63; 125; 126; 189 ] in
  let w ~lo ~width = window v ~lo ~width in
  check_int "inside word 0" 0b11 (w ~lo:61 ~width:2);
  check_int "ends on the boundary" 0b110 (w ~lo:60 ~width:3);
  check_int "straddles 62|63" 0b11 (w ~lo:62 ~width:2);
  check_int "straddles, wider" 0b111000 (w ~lo:58 ~width:6);
  check_int "starts on word 1" 0b1 (w ~lo:63 ~width:5);
  check_int "straddles 125|126" 0b110 (w ~lo:124 ~width:3);
  check_int "last bit" 1 (w ~lo:189 ~width:1);
  check_int "empty window at the end" 0 (w ~lo:190 ~width:0);
  check_int "widest window, one word" 1 (w ~lo:63 ~width:(Sys.int_size - 1));
  check_int "widest window, straddling" ((1 lsl 60) lor (1 lsl 61))
    (w ~lo:65 ~width:(Sys.int_size - 1));
  let refuse name f =
    Alcotest.check_raises name (Invalid_argument "Matrix.windows: range out of bounds")
      (fun () -> ignore (f ()))
  in
  refuse "past the end" (fun () -> w ~lo:188 ~width:3);
  refuse "negative start" (fun () -> w ~lo:(-1) ~width:2);
  refuse "a full word is too wide" (fun () -> w ~lo:0 ~width:Sys.int_size);
  refuse "more rows than the output holds" (fun () ->
      Gf2.Matrix.windows (Gf2.Matrix.of_rows ~cols:190 [ v; v ]) ~lo:0 ~width:3 [| 0 |]);
  (* several rows in one call; slots past the last row are left alone *)
  let rows =
    [| Gf2.Bitvec.of_list 130 [ 62; 63 ]; Gf2.Bitvec.of_list 130 [ 61 ];
       Gf2.Bitvec.of_list 130 [ 64 ]; Gf2.Bitvec.of_list 130 [ 62 ] |]
  in
  let out = Array.make 4 (-1) in
  Gf2.Matrix.windows (Gf2.Matrix.of_rows ~cols:130 (Array.to_list (Array.sub rows 0 3)))
    ~lo:61 ~width:4 out;
  Alcotest.(check (array int)) "row by row" [| 0b0110; 0b0001; 0b1000; -1 |] out

let test_bitvec_blit () =
  let a = Gf2.Bitvec.of_list 130 [ 0; 63; 129 ] and b = Gf2.Bitvec.of_list 130 [ 5 ] in
  Gf2.Bitvec.blit ~src:a ~dst:b;
  check "copied" true (Gf2.Bitvec.equal a b);
  Gf2.Bitvec.set b 7 true;
  check "independent" false (Gf2.Bitvec.get a 7);
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitvec.blit: length mismatch")
    (fun () -> Gf2.Bitvec.blit ~src:a ~dst:(Gf2.Bitvec.create 129))

(* ------------------------------------------------------------------ *)
(* Matrix unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let matrix_of_lists ~cols rows =
  Gf2.Matrix.of_rows ~cols (List.map (Gf2.Bitvec.of_list cols) rows)

let test_matrix_identity_rref () =
  let m = matrix_of_lists ~cols:3 [ [ 0 ]; [ 1 ]; [ 2 ] ] in
  check_int "rank" 3 (Gf2.Matrix.rref m);
  check "still identity" true (Gf2.Matrix.get m 0 0 && Gf2.Matrix.get m 1 1 && Gf2.Matrix.get m 2 2)

let test_matrix_rref_dependent_rows () =
  (* row3 = row1 + row2, so rank 2 *)
  let m = matrix_of_lists ~cols:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] in
  check_int "rank" 2 (Gf2.Matrix.rref m);
  (* third row must be zero after elimination *)
  check "dependent row zeroed" true (Gf2.Bitvec.is_zero (Gf2.Matrix.row m 2))

let test_matrix_rref_is_reduced () =
  (* After Gauss-Jordan each pivot column must contain a single 1. *)
  let m =
    matrix_of_lists ~cols:5 [ [ 0; 1; 4 ]; [ 1; 2 ]; [ 0; 2; 3 ]; [ 3; 4 ] ]
  in
  let rank = Gf2.Matrix.rref m in
  for r = 0 to rank - 1 do
    match Gf2.Bitvec.first_set (Gf2.Matrix.row m r) with
    | None -> Alcotest.fail "nonzero row expected within rank"
    | Some pivot ->
        let count = ref 0 in
        for r' = 0 to Gf2.Matrix.rows m - 1 do
          if Gf2.Matrix.get m r' pivot then incr count
        done;
        check_int "pivot column has one 1" 1 !count
  done

let test_matrix_rank_no_mutation () =
  let m = matrix_of_lists ~cols:3 [ [ 0; 1 ]; [ 1; 2 ] ] in
  let before = Format.asprintf "%a" Gf2.Matrix.pp m in
  check_int "rank" 2 (Gf2.Matrix.rank m);
  let after = Format.asprintf "%a" Gf2.Matrix.pp m in
  Alcotest.(check string) "unchanged by rank" before after

let test_matrix_table1_example () =
  (* Table I of the paper: XL on {x1x2+x1+1, x2x3+x3} with D=1 expansion.
     Columns in Table I order, indexed:
     0:x1x2x3 1:x2x3 2:x1x3 3:x1x2 4:x3 5:x2 6:x1 7:1.
     Each row is the set of columns with a 1. *)
  let expansion =
    [
      [ 3; 6; 7 ]; (* x1x2 + x1 + 1 *)
      [ 3 ];       (* x1 * (x1x2+x1+1) = x1x2 *)
      [ 5 ];       (* x2 * (x1x2+x1+1) = x2 *)
      [ 0; 2; 4 ]; (* x3 * (x1x2+x1+1) = x1x2x3 + x1x3 + x3 *)
      [ 1; 4 ];    (* x2x3 + x3 *)
      [ 0; 2 ];    (* x1 * (x2x3+x3) = x1x2x3 + x1x3 *)
      [ 1; 4 ];    (* x3 * (x2x3+x3) = x2x3 + x3 (duplicate row) *)
    ]
  in
  let m = matrix_of_lists ~cols:8 expansion in
  let rank = Gf2.Matrix.rref m in
  (* The GJE result in Table I(b) has 6 nonzero rows, whose last three are
     the linear facts x1+1, x2, x3. *)
  check_int "rank" 6 rank;
  let nonzero = List.init rank (Gf2.Matrix.row m) in
  check_int "nonzero rows" 6 (List.length nonzero);
  let last3 =
    List.filteri (fun i _ -> i >= 3) (List.map Gf2.Bitvec.to_list nonzero)
  in
  (* columns: 4:x3 5:x2 6:x1 7:1 ; facts x3, x2, x1+1 *)
  Alcotest.(check (list (list int)))
    "linear facts rows" [ [ 4 ]; [ 5 ]; [ 6; 7 ] ] last3

let test_matrix_of_rows_mismatch () =
  Alcotest.check_raises "row length" (Invalid_argument "Matrix.of_rows: row length mismatch")
    (fun () ->
      ignore (Gf2.Matrix.of_rows ~cols:3 [ Gf2.Bitvec.create 4 ]))

let test_matrix_row_bounds_message () =
  let m = Gf2.Matrix.create ~rows:2 ~cols:3 in
  Alcotest.check_raises "row oob"
    (Invalid_argument "Matrix: row 5 out of range (nrows 2)") (fun () ->
      ignore (Gf2.Matrix.row m 5));
  Alcotest.check_raises "negative row"
    (Invalid_argument "Matrix: row -1 out of range (nrows 2)") (fun () ->
      ignore (Gf2.Matrix.get m (-1) 0))

let test_matrix_is_rref () =
  let m = matrix_of_lists ~cols:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] in
  check "not yet reduced" false (Gf2.Matrix.is_rref m);
  ignore (Gf2.Matrix.rref m);
  check "reduced" true (Gf2.Matrix.is_rref m);
  (* zero rows must sit at the bottom *)
  let z = matrix_of_lists ~cols:3 [ []; [ 0 ] ] in
  check "zero row above pivot row" false (Gf2.Matrix.is_rref z);
  (* pivot column dirty outside its pivot row *)
  let d = matrix_of_lists ~cols:3 [ [ 0; 1 ]; [ 1 ] ] in
  check "dirty pivot column" false (Gf2.Matrix.is_rref d);
  (* the empty/zero matrix is trivially in RREF *)
  check "all-zero" true (Gf2.Matrix.is_rref (Gf2.Matrix.create ~rows:2 ~cols:3))

let test_matrix_in_row_space () =
  let m = matrix_of_lists ~cols:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] in
  ignore (Gf2.Matrix.rref m);
  let vec bits =
    let v = Gf2.Bitvec.create 4 in
    List.iter (fun i -> Gf2.Bitvec.set v i true) bits;
    v
  in
  check "member: row sum" true (Gf2.Matrix.in_row_space m (vec [ 0; 2 ]));
  check "member: basis row" true (Gf2.Matrix.in_row_space m (vec [ 0; 1 ]));
  check "member: zero vector" true (Gf2.Matrix.in_row_space m (vec []));
  check "non-member" false (Gf2.Matrix.in_row_space m (vec [ 0 ]));
  check "non-member with fresh column" false (Gf2.Matrix.in_row_space m (vec [ 3 ]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Matrix.in_row_space: vector length 3, matrix has 4 columns")
    (fun () -> ignore (Gf2.Matrix.in_row_space m (Gf2.Bitvec.create 3)))

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let bitvec_gen =
  QCheck.Gen.(
    sized (fun n ->
        let n = max 1 (min 200 (n + 1)) in
        map (Gf2.Bitvec.of_list n) (list_size (int_bound 30) (int_bound (n - 1)))))

let arb_bitvec = QCheck.make ~print:(Format.asprintf "%a" Gf2.Bitvec.pp) bitvec_gen

let prop_xor_self_is_zero =
  QCheck.Test.make ~name:"bitvec: v xor v = 0" ~count:200 arb_bitvec (fun v ->
      let d = Gf2.Bitvec.copy v in
      Gf2.Bitvec.xor_into ~src:v ~dst:d;
      Gf2.Bitvec.is_zero d)

let prop_xor_commutes =
  QCheck.Test.make ~name:"bitvec: xor commutes" ~count:200
    QCheck.(pair arb_bitvec arb_bitvec)
    (fun (a, b) ->
      QCheck.assume (Gf2.Bitvec.length a = Gf2.Bitvec.length b);
      let ab = Gf2.Bitvec.copy a and ba = Gf2.Bitvec.copy b in
      Gf2.Bitvec.xor_into ~src:b ~dst:ab;
      Gf2.Bitvec.xor_into ~src:a ~dst:ba;
      Gf2.Bitvec.equal ab ba)

let prop_popcount_matches_list =
  QCheck.Test.make ~name:"bitvec: popcount = |to_list|" ~count:200 arb_bitvec (fun v ->
      Gf2.Bitvec.popcount v = List.length (Gf2.Bitvec.to_list v))

let matrix_gen =
  QCheck.Gen.(
    let* rows = int_range 1 12 in
    let* cols = int_range 1 12 in
    let* bits = list_size (int_bound 40) (pair (int_bound (rows - 1)) (int_bound (cols - 1))) in
    let m = Gf2.Matrix.create ~rows ~cols in
    List.iter (fun (r, c) -> Gf2.Matrix.set m r c true) bits;
    return m)

let arb_matrix = QCheck.make ~print:(Format.asprintf "%a" Gf2.Matrix.pp) matrix_gen

let prop_rref_idempotent =
  QCheck.Test.make ~name:"matrix: rref idempotent" ~count:200 arb_matrix (fun m ->
      let m1 = Gf2.Matrix.copy m in
      let r1 = Gf2.Matrix.rref m1 in
      let m2 = Gf2.Matrix.copy m1 in
      let r2 = Gf2.Matrix.rref m2 in
      r1 = r2 && Format.asprintf "%a" Gf2.Matrix.pp m1 = Format.asprintf "%a" Gf2.Matrix.pp m2)

let prop_rank_bounded =
  QCheck.Test.make ~name:"matrix: rank <= min(rows,cols)" ~count:200 arb_matrix (fun m ->
      Gf2.Matrix.rank m <= min (Gf2.Matrix.rows m) (Gf2.Matrix.cols m))

(* Row space is preserved by rref: every original row must reduce to zero
   against the rref basis. *)
let prop_rref_preserves_row_space =
  QCheck.Test.make ~name:"matrix: rref preserves row space" ~count:100 arb_matrix (fun m ->
      let reduced = Gf2.Matrix.copy m in
      ignore (Gf2.Matrix.rref reduced);
      let basis =
        List.filter
          (fun r -> not (Gf2.Bitvec.is_zero r))
          (List.init (Gf2.Matrix.rows reduced) (Gf2.Matrix.row reduced))
      in
      let reduce_row row =
        let v = Gf2.Bitvec.copy row in
        List.iter
          (fun b ->
            match Gf2.Bitvec.first_set b with
            | Some p when Gf2.Bitvec.get v p -> Gf2.Bitvec.xor_into ~src:b ~dst:v
            | Some _ | None -> ())
          basis;
        Gf2.Bitvec.is_zero v
      in
      let ok = ref true in
      for r = 0 to Gf2.Matrix.rows m - 1 do
        if not (reduce_row (Gf2.Matrix.row m r)) then ok := false
      done;
      !ok)

let test_m4rm_matches_rref () =
  let m =
    matrix_of_lists ~cols:7 [ [ 0; 1; 4 ]; [ 1; 2 ]; [ 0; 2; 3 ]; [ 3; 4 ]; [ 5; 6 ]; [ 0; 5 ] ]
  in
  let plain = Gf2.Matrix.copy m and four = Gf2.Matrix.copy m in
  let r1 = Gf2.Matrix.rref plain in
  let r2 = Gf2.Matrix.rref_m4rm ~k:3 four in
  check_int "same rank" r1 r2;
  Alcotest.(check string) "same RREF"
    (Format.asprintf "%a" Gf2.Matrix.pp plain)
    (Format.asprintf "%a" Gf2.Matrix.pp four)

let prop_m4rm_equals_rref =
  QCheck.Test.make ~name:"four russians RREF = plain RREF" ~count:300
    QCheck.(pair (make matrix_gen) (int_range 1 8))
    (fun (m, k) ->
      let plain = Gf2.Matrix.copy m and four = Gf2.Matrix.copy m in
      let r1 = Gf2.Matrix.rref plain in
      let r2 = Gf2.Matrix.rref_m4rm ~k four in
      r1 = r2
      && Format.asprintf "%a" Gf2.Matrix.pp plain = Format.asprintf "%a" Gf2.Matrix.pp four)

(* rref_m4rm against rref, row by row and in rank, over matrices up to
   200 columns wide (so blocks straddle the 63-bit word boundaries) at
   every k in 1..8, with sparse rows (about 3 bits, like XL's
   expansions) and dense ones, and with fewer rows than k. *)
let m4rm_agrees_with_rref ~k m =
  let plain = Gf2.Matrix.copy m and four = Gf2.Matrix.copy m in
  let r1 = Gf2.Matrix.rref plain in
  let r2 = Gf2.Matrix.rref_m4rm ~k four in
  r1 = r2
  && List.for_all
       (fun i -> Gf2.Bitvec.equal (Gf2.Matrix.row plain i) (Gf2.Matrix.row four i))
       (List.init (Gf2.Matrix.rows m) Fun.id)

let wide_matrix_gen =
  QCheck.Gen.(
    let* rows = oneof [ int_range 1 8; int_range 9 80 ] in
    let* cols = int_range 1 200 in
    let* dense = bool in
    let* seed = int in
    let rng = Random.State.make [| seed |] in
    let m = Gf2.Matrix.create ~rows ~cols in
    for r = 0 to rows - 1 do
      if dense then
        for c = 0 to cols - 1 do
          if Random.State.bool rng then Gf2.Matrix.set m r c true
        done
      else
        for _ = 1 to 1 + Random.State.int rng 5 do
          Gf2.Matrix.set m r (Random.State.int rng cols) true
        done
    done;
    return m)

let prop_m4rm_differential =
  QCheck.Test.make ~name:"four russians = rref: wide, sparse and dense" ~count:300
    QCheck.(pair (make ~print:(Format.asprintf "%a" Gf2.Matrix.pp) wide_matrix_gen)
              (int_range 1 8))
    (fun (m, k) -> m4rm_agrees_with_rref ~k m)

(* Matrices shaped like the service workload's XL passes: random
   quadratic systems over 20 variables, every polynomial times every
   variable, linearised (about 336 rows, 3-4 bits each, rank close to
   the row count). *)
let test_m4rm_xl_shaped () =
  let rng = Random.State.make [| 2024 |] in
  let nvars = 20 in
  let var () = 1 + Random.State.int rng nvars in
  let quadratic () =
    let quad () = Anf.Poly.mul (Anf.Poly.var (var ())) (Anf.Poly.var (var ())) in
    let q =
      List.fold_left (fun acc _ -> Anf.Poly.add acc (quad ())) Anf.Poly.zero
        (List.init (2 + Random.State.int rng 3) Fun.id)
    in
    if Random.State.bool rng then Anf.Poly.add q Anf.Poly.one else q
  in
  let mults = Bosphorus.Xl.multipliers ~vars:(List.init nvars (fun i -> i + 1)) ~degree:1 in
  for _ = 1 to 12 do
    let system = List.init (nvars - 4) (fun _ -> quadratic ()) in
    let _, m = Bosphorus.Linearize.build (Xl_oracle.expand ~multipliers:mults system) in
    List.iter
      (fun k -> check (Printf.sprintf "k=%d" k) true (m4rm_agrees_with_rref ~k m))
      [ 1; 3; 6; 8 ]
  done

(* The parallel panel update must be bit-identical for every jobs count:
   pivot selection stays sequential and row updates are disjoint. *)
let prop_m4rm_parallel_equals_sequential =
  QCheck.Test.make ~name:"four russians RREF: jobs=k = jobs=1 = plain RREF" ~count:200
    QCheck.(triple (make matrix_gen) (int_range 1 8) (int_range 2 4))
    (fun (m, k, jobs) ->
      let plain = Gf2.Matrix.copy m
      and seq = Gf2.Matrix.copy m
      and par = Gf2.Matrix.copy m in
      let r0 = Gf2.Matrix.rref plain in
      let r1 = Gf2.Matrix.rref_m4rm ~k ~jobs:1 seq in
      let r2 = Gf2.Matrix.rref_m4rm ~k ~jobs par in
      let show = Format.asprintf "%a" Gf2.Matrix.pp in
      r0 = r1 && r1 = r2 && show plain = show seq && show seq = show par)

let test_m4rm_parallel_large () =
  let n = 200 in
  let rng = Random.State.make [| 77 |] in
  let m = Gf2.Matrix.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Random.State.bool rng then Gf2.Matrix.set m i j true
    done
  done;
  let seq = Gf2.Matrix.copy m and par = Gf2.Matrix.copy m in
  let r1 = Gf2.Matrix.rref_m4rm ~jobs:1 seq in
  let r2 = Gf2.Matrix.rref_m4rm ~jobs:4 par in
  check_int "same rank" r1 r2;
  Alcotest.(check string) "bit-identical RREF"
    (Format.asprintf "%a" Gf2.Matrix.pp seq)
    (Format.asprintf "%a" Gf2.Matrix.pp par)

(* ------------------------------------------------------------------ *)
(* Bigarray word store: model-based checks across word boundaries      *)
(* ------------------------------------------------------------------ *)

(* Bits per backing word, derived through the public API so the test
   does not hard-code the representation. *)
let word_bits =
  let n = ref 1 in
  while Gf2.Bitvec.words_for !n <= 1 do
    incr n
  done;
  !n - 1

let boundary_lengths = [ 0; 1; 62; 63; 64; 65; 127; 128; 200 ]

(* Random set/flip traffic against a bool-array model, then a full
   readback of every accessor — exercised at each length that straddles a
   word boundary for either 63- or 64-bit backing words. *)
let test_bitvec_model_lengths () =
  let rng = Random.State.make [| 77 |] in
  List.iter
    (fun n ->
      let v = Gf2.Bitvec.create n in
      let model = Array.make (Int.max 1 n) false in
      for _ = 1 to 500 do
        if n > 0 then begin
          let i = Random.State.int rng n in
          if Random.State.bool rng then begin
            let b = Random.State.bool rng in
            Gf2.Bitvec.set v i b;
            model.(i) <- b
          end
          else begin
            Gf2.Bitvec.flip v i;
            model.(i) <- not model.(i)
          end
        end
      done;
      let expected = List.filter (fun i -> model.(i)) (List.init n Fun.id) in
      for i = 0 to n - 1 do
        check (Printf.sprintf "n=%d get %d" n i) model.(i) (Gf2.Bitvec.get v i)
      done;
      check_int (Printf.sprintf "n=%d popcount" n) (List.length expected)
        (Gf2.Bitvec.popcount v);
      Alcotest.(check (list int))
        (Printf.sprintf "n=%d to_list" n)
        expected (Gf2.Bitvec.to_list v);
      Alcotest.(check (option int))
        (Printf.sprintf "n=%d first_set" n)
        (List.nth_opt expected 0) (Gf2.Bitvec.first_set v);
      check (Printf.sprintf "n=%d is_zero" n) (expected = []) (Gf2.Bitvec.is_zero v);
      check (Printf.sprintf "n=%d equal copy" n) true
        (Gf2.Bitvec.equal v (Gf2.Bitvec.copy v)))
    boundary_lengths

(* cache-blocked parallel M4RM on a non-word-aligned shape: bit-identical
   to jobs=1 and to plain Gauss-Jordan *)
let test_m4rm_nonaligned_parallel () =
  let rng = Random.State.make [| 79 |] in
  let rows = 90 and cols = 130 in
  let m = Gf2.Matrix.create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Random.State.bool rng then Gf2.Matrix.set m i j true
    done
  done;
  let g = Gf2.Matrix.copy m in
  let rank_g = Gf2.Matrix.rref g in
  let m1 = Gf2.Matrix.copy m in
  let rank1 = Gf2.Matrix.rref_m4rm ~jobs:1 m1 in
  let m3 = Gf2.Matrix.copy m in
  let rank3 = Gf2.Matrix.rref_m4rm ~jobs:3 m3 in
  check_int "m4rm jobs=1 rank = rref rank" rank_g rank1;
  check_int "m4rm jobs=3 rank" rank_g rank3;
  let render m = Format.asprintf "%a" Gf2.Matrix.pp m in
  Alcotest.(check string) "jobs=1 = rref" (render g) (render m1);
  Alcotest.(check string) "jobs=3 = jobs=1" (render m1) (render m3)

let test_m4rm_parallel_worthwhile_gate () =
  (* jobs=1 never dispatches, zero work stays inline, and huge shapes at
     jobs>1 dispatch exactly when the host can run domains in parallel;
     the runtime.grain tests check the cutoff's shape *)
  let m4rm ~rows ~cols ~jobs = Gf2.Matrix.m4rm_parallel_worthwhile ~rows ~cols ~jobs () in
  check "jobs=1 is never worthwhile" false (m4rm ~rows:1_000_000 ~cols:65_536 ~jobs:1);
  check "zero work stays inline" false (m4rm ~rows:0 ~cols:0 ~jobs:4);
  check "huge shape at jobs=4 dispatches iff the host can parallelize"
    (Domain.recommended_domain_count () > 1)
    (m4rm ~rows:1_000_000 ~cols:65_536 ~jobs:4)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_xor_self_is_zero;
      prop_xor_commutes;
      prop_popcount_matches_list;
      prop_rref_idempotent;
      prop_rank_bounded;
      prop_rref_preserves_row_space;
      prop_m4rm_equals_rref;
      prop_m4rm_differential;
      prop_m4rm_parallel_equals_sequential;
    ]

let suite =
  [
    ( "gf2.bitvec",
      [
        Alcotest.test_case "create is zero" `Quick test_bitvec_create_zero;
        Alcotest.test_case "set/get across word boundary" `Quick test_bitvec_set_get;
        Alcotest.test_case "flip" `Quick test_bitvec_flip;
        Alcotest.test_case "bounds checks" `Quick test_bitvec_out_of_range;
        Alcotest.test_case "xor_into" `Quick test_bitvec_xor;
        Alcotest.test_case "xor length mismatch" `Quick test_bitvec_xor_length_mismatch;
        Alcotest.test_case "first_set" `Quick test_bitvec_first_set;
        Alcotest.test_case "of_list toggles duplicates" `Quick test_bitvec_of_list_toggles;
        Alcotest.test_case "copy independence" `Quick test_bitvec_copy_independent;
        Alcotest.test_case "iter/fold over set bits" `Quick test_bitvec_fold_iter;
        Alcotest.test_case "window = bitwise get" `Quick test_bitvec_window_model;
        Alcotest.test_case "window at word boundaries" `Quick test_bitvec_window_boundaries;
        Alcotest.test_case "blit" `Quick test_bitvec_blit;
        Alcotest.test_case "model equivalence at word boundaries" `Quick
          test_bitvec_model_lengths;
      ] );
    ( "gf2.matrix",
      [
        Alcotest.test_case "identity rref" `Quick test_matrix_identity_rref;
        Alcotest.test_case "dependent rows" `Quick test_matrix_rref_dependent_rows;
        Alcotest.test_case "rref fully reduced" `Quick test_matrix_rref_is_reduced;
        Alcotest.test_case "rank does not mutate" `Quick test_matrix_rank_no_mutation;
        Alcotest.test_case "Table I worked example" `Quick test_matrix_table1_example;
        Alcotest.test_case "of_rows length mismatch" `Quick test_matrix_of_rows_mismatch;
        Alcotest.test_case "row bounds message" `Quick test_matrix_row_bounds_message;
        Alcotest.test_case "is_rref" `Quick test_matrix_is_rref;
        Alcotest.test_case "in_row_space" `Quick test_matrix_in_row_space;
        Alcotest.test_case "four russians RREF" `Quick test_m4rm_matches_rref;
        Alcotest.test_case "four russians on XL-shaped matrices" `Quick test_m4rm_xl_shaped;
        Alcotest.test_case "parallel M4RM on 200x200" `Quick test_m4rm_parallel_large;
        Alcotest.test_case "non-aligned parallel M4RM" `Quick
          test_m4rm_nonaligned_parallel;
        Alcotest.test_case "granularity gate" `Quick test_m4rm_parallel_worthwhile_gate;
      ] );
    ("gf2.properties", qcheck_cases);
  ]
