module S = Minterm_set

let max_vars = 8

(* every cube over 8 variables, so at least as many as there are primes *)
let max_primes = 6561

(* Per-domain scratch: [imp] holds one minterm set per fixed-variable mask
   (2^8 of them), [live.[mask]] marks a non-empty one and [cur] is the set
   being read out. *)
type scratch = { imp : int array; live : Bytes.t; cur : int array }

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        imp = S.create (1 lsl max_vars);
        live = Bytes.make (1 lsl max_vars) '\000';
        cur = S.create 1;
      })

let is_live sc mask = Bytes.unsafe_get sc.live mask <> '\000'

(* imp(M), for every mask M below [full], as the minterms m whose cube
   (M, m land M) is an implicant: imp(full) is the on-set and, for any bit
   b outside M, imp(M) = imp(M + b) and flip_b (imp(M + b)). *)
let implicant_sets sc ~full =
  for mask = full - 1 downto 0 do
    let src = mask lor ((mask + 1) land lnot mask) in
    let live =
      is_live sc src
      &&
      (S.flip_inter sc.imp (mask * S.words) sc.imp (src * S.words) (S.popcount (src - mask - 1));
       not (S.is_empty sc.imp (mask * S.words)))
    in
    Bytes.unsafe_set sc.live mask (if live then '\001' else '\000')
  done

(* append [tag lor m] for every member m of [cur] from [m] up *)
let rec push_members sc (primes : int array) tag m n =
  let m = S.next sc.cur 0 m in
  if m < 0 then n
  else begin
    primes.(n) <- tag lor m;
    push_members sc primes tag (m + 1) (n + 1)
  end

(* The primes of mask M are the implicants of imp(M) minus those of every
   imp(M - b), b in M; each is read at its canonical minterm (no bit
   outside M), masks ascending and values ascending within a mask. *)
let rec read_primes sc primes ~nvars ~full mask n =
  if mask > full then n
  else if not (is_live sc mask) then read_primes sc primes ~nvars ~full (mask + 1) n
  else begin
    S.copy sc.imp (mask * S.words) sc.cur 0;
    for b = 0 to nvars - 1 do
      let bit = 1 lsl b in
      if mask land bit = 0 then S.inter_bit sc.cur 0 b 0
      else if is_live sc (mask lxor bit) then
        S.diff_into sc.cur 0 sc.imp ((mask lxor bit) * S.words)
    done;
    read_primes sc primes ~nvars ~full (mask + 1) (push_members sc primes (mask lsl max_vars) 0 n)
  end

let check_nvars nvars =
  if nvars < 0 || nvars > max_vars then invalid_arg "Quine_mccluskey: nvars out of range"

let primes_into ~nvars (on : int array) primes =
  check_nvars nvars;
  let sc = Domain.DLS.get scratch in
  let full = (1 lsl nvars) - 1 in
  S.copy on 0 sc.imp (full * S.words);
  Bytes.unsafe_set sc.live full (if S.is_empty on 0 then '\000' else '\001');
  implicant_sets sc ~full;
  read_primes sc primes ~nvars ~full 0 0

let prime_implicants ~nvars on_set =
  check_nvars nvars;
  let on = S.create 1 in
  List.iter
    (fun m ->
      if m < 0 || m >= 1 lsl nvars then invalid_arg "Quine_mccluskey: minterm out of range";
      S.add on 0 m)
    on_set;
  let primes = Array.make max_primes 0 in
  List.init (primes_into ~nvars on primes) (fun i ->
      let c = primes.(i) in
      Cube.make ~mask:(c lsr max_vars) ~value:(c land ((1 lsl max_vars) - 1)))
