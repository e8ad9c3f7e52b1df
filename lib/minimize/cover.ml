let exact_threshold = 18

(* Minterm sets over [0, 2^nvars) as int-array bitsets. *)
module Bits = struct
  let bpw = Sys.int_size

  let create ~nvars = Array.make (((1 lsl nvars) + bpw - 1) / bpw) 0
  let add s m = s.(m / bpw) <- s.(m / bpw) lor (1 lsl (m mod bpw))
  let mem s m = s.(m / bpw) lsr (m mod bpw) land 1 = 1
  let is_empty s = Array.for_all (fun w -> w = 0) s
  let inter = Array.map2 ( land )
  let diff = Array.map2 (fun a b -> a land lnot b)
  let union_into acc s = Array.iteri (fun i w -> acc.(i) <- acc.(i) lor w) s

  let rec popcount w acc = if w = 0 then acc else popcount (w land (w - 1)) (acc + 1)

  let inter_cardinal a b =
    let n = ref 0 in
    Array.iteri (fun i w -> n := popcount (w land b.(i)) !n) a;
    !n

  (* ascending; each word is walked only up to its highest set bit *)
  let iter f s =
    Array.iteri
      (fun i w ->
        let rec bits w m =
          if w <> 0 then begin
            if w land 1 = 1 then f m;
            bits (w lsr 1) (m + 1)
          end
        in
        bits w (i * bpw))
      s
end

(* Exact minimum cover by branch and bound over the prime list.  [uncovered]
   is the set of minterms still to cover; at each step branch on the first
   minterm with the fewest covering primes, trying those primes in order.
   [coverers.(m)] is the bitmask of primes covering minterm [m] (at most
   [exact_threshold] of them). *)
let branch_and_bound primes cover_sets coverers uncovered =
  let best = ref None in
  let best_size = ref max_int in
  let rec go chosen n_chosen uncovered =
    if n_chosen >= !best_size then ()
    else if Bits.is_empty uncovered then begin
      best := Some chosen;
      best_size := n_chosen
    end
    else begin
      let m = ref (-1) and fewest = ref max_int in
      Bits.iter
        (fun m' ->
          let c = Bits.popcount coverers.(m') 0 in
          if c < !fewest then begin
            m := m';
            fewest := c
          end)
        uncovered;
      Array.iteri
        (fun i s -> if coverers.(!m) lsr i land 1 = 1 then go (i :: chosen) (n_chosen + 1) (Bits.diff uncovered s))
        cover_sets
    end
  in
  go [] 0 uncovered;
  Option.map (List.map (fun i -> primes.(i))) !best

let greedy primes cover_sets uncovered =
  let n = Array.length primes in
  let chosen = ref [] in
  let uncovered = ref uncovered in
  while not (Bits.is_empty !uncovered) do
    let best_i = ref (-1) and best_gain = ref 0 in
    for i = 0 to n - 1 do
      let gain = Bits.inter_cardinal cover_sets.(i) !uncovered in
      if gain > !best_gain then begin
        best_gain := gain;
        best_i := i
      end
    done;
    if !best_i < 0 then invalid_arg "Cover.select: uncoverable minterm";
    chosen := primes.(!best_i) :: !chosen;
    uncovered := Bits.diff !uncovered cover_sets.(!best_i)
  done;
  !chosen

(* The minterms of cube [p] that lie in [all]: walk the subsets of its free
   bits. *)
let cover_set ~nvars all (p : Cube.t) =
  let s = Bits.create ~nvars in
  let free = ((1 lsl nvars) - 1) land lnot p.Cube.mask in
  let rec walk sub =
    let m = p.Cube.value lor sub in
    if Bits.mem all m then Bits.add s m;
    if sub <> 0 then walk ((sub - 1) land free)
  in
  walk free;
  s

let select ~nvars ~primes ~on_set =
  match on_set with
  | [] -> []
  | _ ->
      let primes = Array.of_list primes in
      let all = Bits.create ~nvars in
      List.iter (Bits.add all) on_set;
      let cover_sets = Array.map (cover_set ~nvars all) primes in
      (* per minterm: how many primes cover it, and the last of them *)
      let n_coverers = Array.make (1 lsl nvars) 0 and last = Array.make (1 lsl nvars) 0 in
      Array.iteri
        (fun i s ->
          Bits.iter
            (fun m ->
              n_coverers.(m) <- n_coverers.(m) + 1;
              last.(m) <- i)
            s)
        cover_sets;
      Bits.iter (fun m -> if n_coverers.(m) = 0 then invalid_arg "Cover.select: uncoverable minterm") all;
      (* essential primes: sole coverer of some minterm; the table's fold
         order fixes the order in which they are output *)
      let essential = Hashtbl.create 8 in
      Bits.iter (fun m -> if n_coverers.(m) = 1 then Hashtbl.replace essential last.(m) ()) all;
      let chosen0 = Hashtbl.fold (fun i () acc -> i :: acc) essential [] in
      let covered0 = Bits.create ~nvars in
      List.iter (fun i -> Bits.union_into covered0 cover_sets.(i)) chosen0;
      let residual = Bits.diff all covered0 in
      let residual_primes =
        List.filter
          (fun i -> (not (Hashtbl.mem essential i)) && Bits.inter_cardinal cover_sets.(i) residual > 0)
          (List.init (Array.length primes) Fun.id)
      in
      let rest =
        let rp = Array.of_list (List.map (fun i -> primes.(i)) residual_primes) in
        let rsets = Array.of_list (List.map (fun i -> Bits.inter cover_sets.(i) residual) residual_primes) in
        if Bits.is_empty residual then []
        else if Array.length rp <= exact_threshold then begin
          let coverers = Array.make (1 lsl nvars) 0 in
          Array.iteri (fun i s -> Bits.iter (fun m -> coverers.(m) <- coverers.(m) lor (1 lsl i)) s) rsets;
          match branch_and_bound rp rsets coverers residual with
          | Some sol -> sol
          | None -> greedy rp rsets residual
        end
        else greedy rp rsets residual
      in
      List.map (fun i -> primes.(i)) chosen0 @ rest
