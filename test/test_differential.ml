(* Differential testing of the driver against a brute-force GF(2) oracle.

   Seeded random ANF systems (up to 14 variables, degree <= 3) are run
   through the full learning loop in every mode combination —
   incremental/fresh SAT x budgeted/unbudgeted, plus portfolio — and every
   learnt fact is checked to vanish in every brute-force model of the
   input.  Budgeted runs frequently degrade; their partial fact sets must
   be exactly as sound.

   The seed comes from BOSPHORUS_DIFF_SEED when set (CI prints it on
   failure); the default is fixed so local runs are reproducible. *)

module B = Bosphorus
module P = Anf.Poly
module E = Anf.Eval

let check = Alcotest.(check bool)

let base_seed =
  match Sys.getenv_opt "BOSPHORUS_DIFF_SEED" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> Alcotest.failf "BOSPHORUS_DIFF_SEED must be an integer, got %S" s)
  | None -> 0x0b05

(* ------------------------------------------------------------------ *)
(* Random system generator                                             *)
(* ------------------------------------------------------------------ *)

(* One random polynomial: the XOR of [n_terms] monomials, each a product
   of 1..3 distinct variables, with an independent constant term. *)
let random_poly rng ~nvars =
  let n_terms = 2 + Random.State.int rng 4 in
  let term () =
    let deg = 1 + Random.State.int rng 3 in
    let rec pick acc k =
      if k = 0 then acc
      else
        let v = Random.State.int rng nvars in
        if List.mem v acc then pick acc k else pick (v :: acc) (k - 1)
    in
    List.fold_left (fun p v -> P.mul p (P.var v)) P.one (pick [] (min deg nvars))
  in
  let p = ref (if Random.State.bool rng then P.one else P.zero) in
  for _ = 1 to n_terms do
    p := P.add !p (term ())
  done;
  !p

let random_system rng ~nvars =
  let n_polys = nvars + 1 + Random.State.int rng 3 in
  let sys = List.init n_polys (fun _ -> random_poly rng ~nvars) in
  List.filter (fun p -> not (P.is_zero p)) sys

(* 220 systems: 200 small (4..10 vars) + 20 larger (11..14 vars).  Each
   gets its own RNG seeded from [base_seed + index] so a failing index
   reproduces in isolation, and the set is identical in every mode. *)
let n_small = 200
let n_large = 20
let n_systems = n_small + n_large

let system_of_index i =
  let rng = Random.State.make [| base_seed + i |] in
  let nvars =
    if i < n_small then 4 + Random.State.int rng 7 else 11 + Random.State.int rng 4
  in
  (random_system rng ~nvars, nvars)

(* ------------------------------------------------------------------ *)
(* Brute-force oracle                                                  *)
(* ------------------------------------------------------------------ *)

(* All models of [polys] over its own variables, as assignment functions.
   Streaming over bitmasks keeps the 2^14 worst case cheap. *)
let models_of polys =
  let vars = Array.of_list (E.vars_of polys) in
  let n = Array.length vars in
  assert (n <= 14);
  let out = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let assignment v =
      let rec idx i = if vars.(i) = v then i else idx (i + 1) in
      match idx 0 with
      | i -> mask land (1 lsl i) <> 0
      | exception Invalid_argument _ -> false
    in
    if E.satisfies assignment polys then out := assignment :: !out
  done;
  !out

let holds_in_all_models ~models f =
  List.for_all (fun m -> not (P.eval m f)) models

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

type mode = {
  mode_name : string;
  incremental : bool;
  budgeted : bool;
  portfolio : int;
}

let config_of mode =
  let base =
    {
      B.Config.default with
      B.Config.stop_on_solution = false;
      max_iterations = 4;
      sat_budget_start = 500;
      incremental_sat = mode.incremental;
      portfolio = mode.portfolio;
    }
  in
  if mode.budgeted then
    (* tight enough that many systems trip (the master alone can exceed
       the gauge), loose enough that some complete — both paths must be
       sound *)
    {
      base with
      B.Config.max_memory_monomials = Some 64;
      max_total_conflicts = Some 2;
    }
  else base

let modes =
  List.concat_map
    (fun incremental ->
      List.map
        (fun budgeted ->
          {
            mode_name =
              Printf.sprintf "%s/%s"
                (if incremental then "incremental" else "fresh")
                (if budgeted then "budgeted" else "unbudgeted");
            incremental;
            budgeted;
            portfolio = 1;
          })
        [ false; true ])
    [ true; false ]
  (* the portfolio races diversified solver clones per SAT round; its
     facts (winner's plus the clause exchange) must be exactly as sound
     as the single-solver modes' *)
  @ [
      {
        mode_name = "incremental/portfolio2";
        incremental = true;
        budgeted = false;
        portfolio = 2;
      };
      {
        mode_name = "fresh/portfolio3";
        incremental = false;
        budgeted = false;
        portfolio = 3;
      };
    ]

(* ------------------------------------------------------------------ *)
(* The differential check                                              *)
(* ------------------------------------------------------------------ *)

let assignment_of_alist alist v =
  match List.assoc_opt v alist with Some b -> b | None -> false

let check_system ~mode i =
  let input, _nvars = system_of_index i in
  if input <> [] then begin
    let models = models_of input in
    let outcome = B.Driver.run ~config:(config_of mode) input in
    let ctx fmt =
      Printf.ksprintf
        (fun s -> Printf.sprintf "%s: system %d: %s" mode.mode_name i s)
        fmt
    in
    (* every learnt fact vanishes in every model of the input *)
    List.iter
      (fun (origin, f) ->
        if not (holds_in_all_models ~models f) then
          Alcotest.failf "%s"
            (ctx "unsound %s fact %s" (B.Facts.origin_name origin)
               (Format.asprintf "%a" P.pp f)))
      (B.Facts.to_list outcome.B.Driver.facts);
    (* the processed ANF is implied by the input too: the master system
       after substitutions plus the fact polynomials *)
    List.iter
      (fun f ->
        if not (holds_in_all_models ~models f) then
          Alcotest.failf "%s"
            (ctx "processed ANF poly not implied: %s"
               (Format.asprintf "%a" P.pp f)))
      outcome.B.Driver.anf;
    (* status-level differential *)
    (match outcome.B.Driver.status with
    | B.Driver.Solved_sat sol ->
        check (ctx "claimed model satisfies the input") true
          (E.satisfies (assignment_of_alist sol) input);
        check (ctx "models exist") true (models <> [])
    | B.Driver.Solved_unsat ->
        check (ctx "unsat claim matches oracle") true (models = [])
    | B.Driver.Processed -> ()
    | B.Driver.Degraded -> (
        match outcome.B.Driver.budget_report with
        | Some { Harness.Budget.trip = Some _; _ } -> ()
        | Some { Harness.Budget.trip = None; _ } | None ->
            Alcotest.failf "%s" (ctx "Degraded outcome without a trip")));
    (* budget bookkeeping *)
    match outcome.B.Driver.budget_report with
    | Some r when mode.budgeted ->
        check (ctx "conflict account within ceiling") true
          (r.Harness.Budget.conflicts_used <= 2)
    | Some _ -> ()
    | None ->
        check (ctx "unbudgeted run carries no report") false mode.budgeted
  end

(* The reference mode sweeps every system; the other five each sweep a
   strided quarter, so all modes see small and large systems alike. *)
let run_mode mode () =
  let reference = mode.incremental && not mode.budgeted in
  let step = if reference then 1 else 4 in
  let offset = if reference then 0 else if mode.budgeted then 2 else 1 in
  let n = ref 0 in
  let i = ref offset in
  while !i < n_systems do
    check_system ~mode !i;
    incr n;
    i := !i + step
  done;
  check (mode.mode_name ^ ": swept a real batch") true
    (!n >= if reference then n_systems else 50)

(* ------------------------------------------------------------------ *)
(* Service mode: the daemon is observationally the one-shot driver      *)
(* ------------------------------------------------------------------ *)

(* Each system goes through a live daemon twice — cold (a cache miss
   that runs the driver on a worker domain) and warm under a different
   client name (a cache hit replaying the stored summary) — and both
   replies must equal the summary of a direct [Driver.run] with the same
   config, modulo wall-clock and the cache flag.  This is the end-to-end
   check that the service layer (scheduling, budgets, sessions, cache)
   adds no observable behaviour of its own. *)

let service_config =
  {
    B.Config.default with
    B.Config.stop_on_solution = false;
    max_iterations = 4;
    sat_budget_start = 500;
    incremental_sat = true;
    portfolio = 1;
  }

let strip_summary s =
  { s with Service.Protocol.wall_s = 0.0; cache_hit = false }

let run_service_mode ~offset () =
  let config = service_config in
  let socket_path = "tdiff-service.sock" in
  let cfg =
    { (Service.Daemon.default_config ~socket_path) with Service.Daemon.base_config = config }
  in
  let daemon = Service.Daemon.start cfg in
  Fun.protect ~finally:(fun () -> Service.Daemon.stop daemon) @@ fun () ->
  let client = Service.Client.connect socket_path in
  Fun.protect ~finally:(fun () -> Service.Client.close client) @@ fun () ->
  let submit ~tenant text =
    match
      Service.Client.submit client ~client:tenant ~format:Service.Protocol.Anf text
    with
    | Ok (Service.Protocol.Result (_, s)) -> s
    | Ok (Service.Protocol.Error_reply { code; message }) ->
        Alcotest.failf "daemon error %s: %s" code message
    | Ok _ -> Alcotest.fail "unexpected daemon reply"
    | Error m -> Alcotest.failf "daemon transport error: %s" m
  in
  let n = ref 0 in
  let i = ref offset in
  while !i < n_systems do
    let input, _ = system_of_index !i in
    if input <> [] then begin
      (* the wire instance is the canonical text; the reference run uses
         its round-trip so both sides solve the identical system *)
      let text = Anf.Anf_io.write_string input in
      let reference = Anf.Anf_io.parse_string text in
      let expected =
        Service.Protocol.summary_of_outcome ~wall_s:0.0 ~cache_hit:false
          ~session_reused_clauses:0
          (B.Driver.run ~config reference)
      in
      let cold = submit ~tenant:(Printf.sprintf "diff-%d" !i) text in
      check (Printf.sprintf "system %d: cold run not a hit" !i)
        false cold.Service.Protocol.cache_hit;
      if strip_summary cold <> expected then
        Alcotest.failf "system %d: daemon (cold) diverges from one-shot driver" !i;
      let warm = submit ~tenant:(Printf.sprintf "diff-%d-warm" !i) text in
      check (Printf.sprintf "system %d: warm run hits" !i) true
        warm.Service.Protocol.cache_hit;
      if strip_summary warm <> expected then
        Alcotest.failf "system %d: cache hit diverges from one-shot driver" !i;
      incr n
    end;
    i := !i + 8
  done;
  check "service: swept a real batch" true (!n >= 25)

let suite =
  [
    ( "differential",
      List.map
        (fun mode -> Alcotest.test_case mode.mode_name `Quick (run_mode mode))
        modes
      @ [
          Alcotest.test_case "service" `Quick (run_service_mode ~offset:1);
        ] );
  ]
