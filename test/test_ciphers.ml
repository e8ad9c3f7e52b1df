(* Tests for the cipher encoders: references against published vectors,
   ANF instances against the witness checker and the solver. *)

module P = Anf.Poly

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let rng seed = Random.State.make [| seed |]

(* ------------------------------------------------------------------ *)
(* Encode                                                              *)
(* ------------------------------------------------------------------ *)

let test_encode_words () =
  let w = Ciphers.Encode.const_word ~width:8 0xb3 in
  check "value roundtrip" true (Ciphers.Encode.word_value w = Some 0xb3);
  check "rotl"
    true
    (Ciphers.Encode.word_value (Ciphers.Encode.rotl w 4) = Some 0x3b);
  check "rotr" true (Ciphers.Encode.word_value (Ciphers.Encode.rotr w 4) = Some 0x3b);
  check "shiftr" true (Ciphers.Encode.word_value (Ciphers.Encode.shiftr w 4) = Some 0x0b);
  let ctx = Ciphers.Encode.create () in
  let a = Ciphers.Encode.const_word ~width:8 200 and b = Ciphers.Encode.const_word ~width:8 100 in
  check "add mod 256" true
    (Ciphers.Encode.word_value (Ciphers.Encode.add_word ctx a b) = Some ((200 + 100) land 0xff))

let test_encode_symbolic_add () =
  (* symbolic addition must agree with integer addition on all inputs *)
  let width = 4 in
  let ctx = Ciphers.Encode.create () in
  let xs = Ciphers.Encode.inputs ctx width in
  let ys = Ciphers.Encode.inputs ctx width in
  let sum = Ciphers.Encode.add_word ctx xs ys in
  let eqs = Ciphers.Encode.equations ctx in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let assignment =
        List.init width (fun i -> (i, a lsr i land 1 = 1))
        @ List.init width (fun i -> (width + i, b lsr i land 1 = 1))
      in
      match Witness.extend eqs assignment with
      | Witness.Satisfied values ->
          let lookup x = try Hashtbl.find values x with Not_found -> false in
          let got =
            Array.to_list sum
            |> List.mapi (fun i bit -> if P.eval lookup bit then 1 lsl i else 0)
            |> List.fold_left ( lor ) 0
          in
          check_int (Printf.sprintf "%d+%d" a b) ((a + b) land 15) got
      | Witness.Violated _ | Witness.Stuck _ ->
          Alcotest.fail "carry chain must extend"
    done
  done

let test_encode_define_folds_constants () =
  let ctx = Ciphers.Encode.create () in
  let p = Ciphers.Encode.and_bit ctx P.one P.zero in
  check "constant folded" true (P.is_zero p);
  check_int "no equations" 0 (List.length (Ciphers.Encode.equations ctx))

(* ------------------------------------------------------------------ *)
(* GF(2^e)                                                             *)
(* ------------------------------------------------------------------ *)

let test_gf256_arithmetic () =
  let f = Ciphers.Gf2n.gf256 in
  (* AES classic: 0x57 * 0x83 = 0xc1 *)
  check_int "mul" 0xc1 (Ciphers.Gf2n.mul f 0x57 0x83);
  check_int "mul by 1" 0x57 (Ciphers.Gf2n.mul f 0x57 1);
  check_int "inv 0" 0 (Ciphers.Gf2n.inv f 0);
  for v = 1 to 255 do
    check_int "inv" 1 (Ciphers.Gf2n.mul f v (Ciphers.Gf2n.inv f v))
  done

let test_gf16_inverses () =
  let f = Ciphers.Gf2n.gf16 in
  for v = 1 to 15 do
    check_int "inv" 1 (Ciphers.Gf2n.mul f v (Ciphers.Gf2n.inv f v))
  done

let test_mul_matrix_matches_mul () =
  let f = Ciphers.Gf2n.gf16 in
  for c = 0 to 15 do
    let rows = Ciphers.Gf2n.mul_matrix f c in
    for v = 0 to 15 do
      let bits = Array.init 4 (fun i -> P.constant (v lsr i land 1 = 1)) in
      let out = Ciphers.Gf2n.apply_linear rows bits in
      let got =
        Array.to_list out
        |> List.mapi (fun i b -> if P.is_one b then 1 lsl i else 0)
        |> List.fold_left ( lor ) 0
      in
      check_int (Printf.sprintf "%d*%d" c v) (Ciphers.Gf2n.mul f c v) got
    done
  done

let test_anf_of_table_roundtrip () =
  (* the ANF evaluated on constants reproduces the table *)
  let table = Array.init 16 (fun v -> v * 7 mod 16) in
  let anf = Ciphers.Gf2n.anf_of_table ~e:4 table in
  for v = 0 to 15 do
    let bits = Array.init 4 (fun i -> P.constant (v lsr i land 1 = 1)) in
    let out = Ciphers.Gf2n.apply_anf anf bits in
    let got =
      Array.to_list out
      |> List.mapi (fun i b -> if P.is_one b then 1 lsl i else 0)
      |> List.fold_left ( lor ) 0
    in
    check_int "table entry" table.(v) got
  done

(* ------------------------------------------------------------------ *)
(* Simon                                                               *)
(* ------------------------------------------------------------------ *)

let simon_test_key = [| 0x0100; 0x0908; 0x1110; 0x1918 |]

let test_simon_vector () =
  (* the Simon32/64 specification test vector *)
  check_int "full rounds" 0xc69be9bb
    (Ciphers.Simon.encrypt ~rounds:32 ~key:simon_test_key 0x65656877)

let test_simon_key_schedule_linear () =
  (* key schedule is linear: k(a^b) = k(a) ^ k(b) ^ k(0) round-wise *)
  let ka = [| 0x1234; 0x5678; 0x9abc; 0xdef0 |] in
  let kb = [| 0x1111; 0x2222; 0x3333; 0x4444 |] in
  let kx = Array.map2 ( lxor ) ka kb in
  let rka = Ciphers.Simon.expand_key ~rounds:12 ka in
  let rkb = Ciphers.Simon.expand_key ~rounds:12 kb in
  let rk0 = Ciphers.Simon.expand_key ~rounds:12 [| 0; 0; 0; 0 |] in
  let rkx = Ciphers.Simon.expand_key ~rounds:12 kx in
  Array.iteri
    (fun i v -> check_int "round key linearity" v (rka.(i) lxor rkb.(i) lxor rk0.(i)))
    rkx

let test_simon_instance_witness () =
  (* the generating key must satisfy the emitted system *)
  let inst = Ciphers.Simon.instance ~rounds:8 ~n_plaintexts:3 ~rng:(rng 5) () in
  check "witness extends" true
    (Witness.check inst.Ciphers.Simon.equations (Ciphers.Simon.key_assignment inst));
  check "plaintexts differ per SP/RC" true
    (List.length (List.sort_uniq Int.compare (List.map fst inst.Ciphers.Simon.pairs)) = 3)

let test_simon_wrong_key_violates () =
  let inst = Ciphers.Simon.instance ~rounds:6 ~n_plaintexts:2 ~rng:(rng 6) () in
  let wrong =
    List.map (fun (v, b) -> (v, if v = 0 then not b else b)) (Ciphers.Simon.key_assignment inst)
  in
  check "flipped key bit violates" false
    (Witness.check inst.Ciphers.Simon.equations wrong)

let test_simon_sat_recovers_key () =
  (* end-to-end: solve a small instance with the SAT pipeline and check the
     recovered key re-encrypts correctly *)
  let inst = Ciphers.Simon.instance ~rounds:4 ~n_plaintexts:2 ~rng:(rng 7) () in
  let conv = Bosphorus.Anf_to_cnf.convert ~config:Bosphorus.Config.default inst.Ciphers.Simon.equations in
  let solver = Sat.Solver.create ~nvars:(Cnf.Formula.nvars conv.Bosphorus.Anf_to_cnf.formula) () in
  check "formula loads" true (Sat.Solver.add_formula solver conv.Bosphorus.Anf_to_cnf.formula);
  match Sat.Solver.solve solver with
  | Sat.Types.Sat model ->
      let key =
        Array.init 4 (fun w ->
            let word = ref 0 in
            for i = 0 to 15 do
              if model.((w * 16) + i) then word := !word lor (1 lsl i)
            done;
            !word)
      in
      List.iter
        (fun (p, c) ->
          check_int "recovered key encrypts correctly" c
            (Ciphers.Simon.encrypt ~rounds:4 ~key p))
        inst.Ciphers.Simon.pairs
  | Sat.Types.Unsat | Sat.Types.Undecided -> Alcotest.fail "instance must be satisfiable"

(* ------------------------------------------------------------------ *)
(* Speck                                                               *)
(* ------------------------------------------------------------------ *)

let speck_test_key = [| 0x0100; 0x0908; 0x1110; 0x1918 |]

let test_speck_vector () =
  (* the Speck32/64 specification test vector *)
  check_int "full rounds" 0xa86842f2
    (Ciphers.Speck.encrypt ~rounds:22 ~key:speck_test_key 0x6574694c)

let test_speck_key_schedule_nonlinear () =
  (* unlike Simon, Speck's schedule adds modularly: it is NOT linear *)
  let ka = [| 0x1234; 0x5678; 0x9abc; 0xdef0 |] in
  let kb = [| 0x1111; 0x2222; 0x3333; 0x4444 |] in
  let kx = Array.map2 ( lxor ) ka kb in
  let rka = Ciphers.Speck.expand_key ~rounds:8 ka in
  let rkb = Ciphers.Speck.expand_key ~rounds:8 kb in
  let rk0 = Ciphers.Speck.expand_key ~rounds:8 [| 0; 0; 0; 0 |] in
  let rkx = Ciphers.Speck.expand_key ~rounds:8 kx in
  let linear = ref true in
  Array.iteri
    (fun i v -> if v <> rka.(i) lxor rkb.(i) lxor rk0.(i) then linear := false)
    rkx;
  check "not linear" false !linear

let test_speck_instance_witness () =
  let inst = Ciphers.Speck.instance ~rounds:5 ~n_plaintexts:2 ~rng:(rng 31) () in
  check "witness extends" true
    (Witness.check inst.Ciphers.Speck.equations (Ciphers.Speck.key_assignment inst));
  let wrong =
    List.map
      (fun (v, b) -> (v, if v = 3 then not b else b))
      (Ciphers.Speck.key_assignment inst)
  in
  check "wrong key violates" false (Witness.check inst.Ciphers.Speck.equations wrong)

let test_speck_sat_recovers_key () =
  let inst = Ciphers.Speck.instance ~rounds:3 ~n_plaintexts:2 ~rng:(rng 32) () in
  let conv =
    Bosphorus.Anf_to_cnf.convert ~config:Bosphorus.Config.default inst.Ciphers.Speck.equations
  in
  let solver =
    Sat.Solver.create ~nvars:(Cnf.Formula.nvars conv.Bosphorus.Anf_to_cnf.formula) ()
  in
  check "formula loads" true (Sat.Solver.add_formula solver conv.Bosphorus.Anf_to_cnf.formula);
  match Sat.Solver.solve solver with
  | Sat.Types.Sat model ->
      let key =
        Array.init 4 (fun w ->
            let word = ref 0 in
            for i = 0 to 15 do
              if model.((w * 16) + i) then word := !word lor (1 lsl i)
            done;
            !word)
      in
      List.iter
        (fun (p, c) ->
          check_int "recovered key encrypts correctly" c (Ciphers.Speck.encrypt ~rounds:3 ~key p))
        inst.Ciphers.Speck.pairs
  | Sat.Types.Unsat | Sat.Types.Undecided -> Alcotest.fail "instance must be satisfiable"

(* ------------------------------------------------------------------ *)
(* Small-scale AES                                                     *)
(* ------------------------------------------------------------------ *)

let test_aes_sbox_matches_aes () =
  (* for e = 8 the construction reproduces the genuine AES S-box *)
  let p = Ciphers.Aes_small.paper_params in
  check_int "S(0x00)" 0x63 (Ciphers.Aes_small.sbox p 0x00);
  check_int "S(0x01)" 0x7c (Ciphers.Aes_small.sbox p 0x01);
  check_int "S(0x53)" 0xed (Ciphers.Aes_small.sbox p 0x53)

let test_aes_sbox_bijective () =
  List.iter
    (fun params ->
      let n = 1 lsl params.Ciphers.Aes_small.e in
      let seen = Hashtbl.create n in
      for v = 0 to n - 1 do
        Hashtbl.replace seen (Ciphers.Aes_small.sbox params v) ()
      done;
      check_int "bijective" n (Hashtbl.length seen))
    [ Ciphers.Aes_small.paper_params; Ciphers.Aes_small.small_params ]

let test_aes_encrypt_key_dependence () =
  let p = Ciphers.Aes_small.small_params in
  let pt = [| 1; 2; 3; 4 |] in
  let c1 = Ciphers.Aes_small.encrypt p ~key:[| 5; 6; 7; 8 |] pt in
  let c2 = Ciphers.Aes_small.encrypt p ~key:[| 5; 6; 7; 9 |] pt in
  check "different keys, different ciphertexts" false (c1 = c2)

let test_aes_instance_witness () =
  let p = Ciphers.Aes_small.small_params in
  let inst = Ciphers.Aes_small.instance p ~rng:(rng 11) () in
  check "witness extends" true
    (Witness.check inst.Ciphers.Aes_small.equations
       (Ciphers.Aes_small.key_assignment p inst));
  check "equations nonempty" true (inst.Ciphers.Aes_small.equations <> [])

let test_aes_paper_params_instance_shape () =
  (* SR(1,4,4,8): check the instance is generated at full scale *)
  let p = Ciphers.Aes_small.paper_params in
  let inst = Ciphers.Aes_small.instance p ~rng:(rng 12) () in
  check_int "128 key variables" 128 (Array.length inst.Ciphers.Aes_small.key_vars);
  check "hundreds of equations" true (List.length inst.Ciphers.Aes_small.equations > 200);
  check "witness extends" true
    (Witness.check inst.Ciphers.Aes_small.equations
       (Ciphers.Aes_small.key_assignment p inst))

(* ------------------------------------------------------------------ *)
(* SHA-256 / Bitcoin                                                   *)
(* ------------------------------------------------------------------ *)

let test_sha256_vectors () =
  check_str "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Ciphers.Sha256.digest_hex "abc");
  check_str "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Ciphers.Sha256.digest_hex "");
  check_str "fox"
    "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
    (Ciphers.Sha256.digest_hex "The quick brown fox jumps over the lazy dog");
  Alcotest.check_raises "two-block message rejected"
    (Invalid_argument "Sha256.digest_hex: one-block messages only (<= 55 bytes)")
    (fun () -> ignore (Ciphers.Sha256.digest_hex (String.make 56 'a')))

let test_sha256_rounds_guard () =
  Alcotest.check_raises "rounds 0" (Invalid_argument "Sha256: rounds in 1..64") (fun () ->
      ignore (Ciphers.Sha256.digest_hex ~rounds:0 "x"));
  Alcotest.check_raises "vacuous nonce rounds"
    (Invalid_argument "Sha256.nonce_instance: rounds >= 16") (fun () ->
      ignore (Ciphers.Sha256.nonce_instance ~rounds:8 ~k:4 ~rng:(rng 0) ()))

let test_bitcoin_nonce_instance () =
  let inst = Ciphers.Sha256.nonce_instance ~rounds:16 ~k:3 ~rng:(rng 21) () in
  check_int "32 nonce vars" 32 (Array.length inst.Ciphers.Sha256.nonce_vars);
  check "instance has equations" true (List.length inst.Ciphers.Sha256.equations > 100);
  (* brute-force a valid nonce and check it witnesses the system *)
  match
    Ciphers.Sha256.find_nonce ~rounds:16 ~prefix_bits:inst.Ciphers.Sha256.prefix_bits ~k:3
      ~limit:200
  with
  | Some nonce ->
      let assignment = List.init 32 (fun i -> (i, nonce lsr (31 - i) land 1 = 1)) in
      check "nonce witnesses instance" true
        (Witness.check inst.Ciphers.Sha256.equations assignment)
  | None -> Alcotest.fail "a 3-zero-bit nonce should exist within 200 tries"

let test_bitcoin_bad_nonce_violates () =
  let inst = Ciphers.Sha256.nonce_instance ~rounds:16 ~k:8 ~rng:(rng 22) () in
  (* find a nonce that does NOT satisfy k=8 and check violation *)
  let rec bad n =
    let bits =
      Ciphers.Sha256.digest_bits ~rounds:16 ~prefix_bits:inst.Ciphers.Sha256.prefix_bits ~nonce:n
    in
    let ok = ref true in
    for i = 0 to 7 do
      if bits.(i) then ok := false
    done;
    if !ok then bad (n + 1) else n
  in
  let nonce = bad 0 in
  let assignment = List.init 32 (fun i -> (i, nonce lsr (31 - i) land 1 = 1)) in
  check "bad nonce violates" false
    (Witness.check inst.Ciphers.Sha256.equations assignment)

(* ------------------------------------------------------------------ *)
(* End-to-end driver integration                                       *)
(* ------------------------------------------------------------------ *)

let test_driver_recovers_aes_key () =
  (* the full Bosphorus pipeline on an SR(1,2,2,4) instance: whatever path
     decides it, the recovered key must re-encrypt correctly *)
  let params = Ciphers.Aes_small.small_params in
  let inst = Ciphers.Aes_small.instance params ~rng:(rng 77) () in
  let outcome = Bosphorus.Driver.run inst.Ciphers.Aes_small.equations in
  let finish sol =
    let e = params.Ciphers.Aes_small.e in
    let cells = params.Ciphers.Aes_small.r * params.Ciphers.Aes_small.c in
    let key =
      Array.init cells (fun cell ->
          let v = ref 0 in
          for j = 0 to e - 1 do
            if (try List.assoc ((cell * e) + j) sol with Not_found -> false) then
              v := !v lor (1 lsl j)
          done;
          !v)
    in
    check "key re-encrypts" true
      (Ciphers.Aes_small.encrypt params ~key inst.Ciphers.Aes_small.plaintext
      = inst.Ciphers.Aes_small.ciphertext)
  in
  match outcome.Bosphorus.Driver.status with
  | Bosphorus.Driver.Solved_sat sol -> finish sol
  | Bosphorus.Driver.Solved_unsat -> Alcotest.fail "satisfiable by construction"
  | Bosphorus.Driver.Processed | Bosphorus.Driver.Degraded -> (
      match
        (Sat.Profiles.solve Sat.Profiles.Cms5 outcome.Bosphorus.Driver.cnf).Sat.Profiles.result
      with
      | Sat.Types.Sat model ->
          finish (Array.to_list (Array.mapi (fun i b -> (i, b)) model))
      | Sat.Types.Unsat | Sat.Types.Undecided -> Alcotest.fail "processed CNF must be SAT")

let test_driver_recovers_speck_key () =
  let inst = Ciphers.Speck.instance ~rounds:3 ~n_plaintexts:2 ~rng:(rng 78) () in
  match (Bosphorus.Driver.run inst.Ciphers.Speck.equations).Bosphorus.Driver.status with
  | Bosphorus.Driver.Solved_sat sol ->
      let key =
        Array.init 4 (fun w ->
            let word = ref 0 in
            for i = 0 to 15 do
              if (try List.assoc ((w * 16) + i) sol with Not_found -> false) then
                word := !word lor (1 lsl i)
            done;
            !word)
      in
      List.iter
        (fun (p, c) ->
          check_int "key re-encrypts" c (Ciphers.Speck.encrypt ~rounds:3 ~key p))
        inst.Ciphers.Speck.pairs
  | Bosphorus.Driver.Solved_unsat -> Alcotest.fail "satisfiable by construction"
  | Bosphorus.Driver.Processed | Bosphorus.Driver.Degraded ->
      (* acceptable, but at 3 rounds the loop should normally close it *)
      ()

let suite =
  [
    ( "ciphers.encode",
      [
        Alcotest.test_case "word helpers" `Quick test_encode_words;
        Alcotest.test_case "symbolic add exhaustive" `Quick test_encode_symbolic_add;
        Alcotest.test_case "constant folding" `Quick test_encode_define_folds_constants;
      ] );
    ( "ciphers.gf2n",
      [
        Alcotest.test_case "gf256 arithmetic" `Quick test_gf256_arithmetic;
        Alcotest.test_case "gf16 inverses" `Quick test_gf16_inverses;
        Alcotest.test_case "mul_matrix" `Quick test_mul_matrix_matches_mul;
        Alcotest.test_case "anf of table" `Quick test_anf_of_table_roundtrip;
      ] );
    ( "ciphers.simon",
      [
        Alcotest.test_case "specification vector" `Quick test_simon_vector;
        Alcotest.test_case "key schedule linearity" `Quick test_simon_key_schedule_linear;
        Alcotest.test_case "instance witness" `Quick test_simon_instance_witness;
        Alcotest.test_case "wrong key violates" `Quick test_simon_wrong_key_violates;
        Alcotest.test_case "SAT pipeline recovers key" `Slow test_simon_sat_recovers_key;
      ] );
    ( "ciphers.speck",
      [
        Alcotest.test_case "specification vector" `Quick test_speck_vector;
        Alcotest.test_case "key schedule nonlinearity" `Quick test_speck_key_schedule_nonlinear;
        Alcotest.test_case "instance witness" `Quick test_speck_instance_witness;
        Alcotest.test_case "SAT pipeline recovers key" `Slow test_speck_sat_recovers_key;
      ] );
    ( "ciphers.aes",
      [
        Alcotest.test_case "e=8 S-box is AES's" `Quick test_aes_sbox_matches_aes;
        Alcotest.test_case "S-box bijective" `Quick test_aes_sbox_bijective;
        Alcotest.test_case "key dependence" `Quick test_aes_encrypt_key_dependence;
        Alcotest.test_case "instance witness (small)" `Quick test_aes_instance_witness;
        Alcotest.test_case "SR(1,4,4,8) instance shape" `Quick test_aes_paper_params_instance_shape;
      ] );
    ( "ciphers.integration",
      [
        Alcotest.test_case "driver recovers AES key" `Slow test_driver_recovers_aes_key;
        Alcotest.test_case "driver recovers Speck key" `Slow test_driver_recovers_speck_key;
      ] );
    ( "ciphers.sha256",
      [
        Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "round guards" `Quick test_sha256_rounds_guard;
        Alcotest.test_case "nonce instance + witness" `Slow test_bitcoin_nonce_instance;
        Alcotest.test_case "bad nonce violates" `Slow test_bitcoin_bad_nonce_violates;
      ] );
  ]
