(* Clean control: the safe counterparts of every bad_* fixture.  The
   analyzer must report nothing here — hot_clean is even listed
   [hotpaths] in the test manifest. *)

(* pure task closures capture nothing mutable *)
let sum_squares xs =
  let squares = Runtime.Pool.run_pinned (List.map (fun x () -> x * x) xs) in
  List.fold_left (fun acc r -> acc + Result.value r ~default:0) 0 squares

(* Atomic.t is the sanctioned shared-state primitive *)
let counter = Atomic.make 0

let bump () = Runtime.Pool.run_pinned [ (fun () -> Atomic.incr counter) ]

(* monomorphic comparisons *)
let int_compare (x : int) (y : int) = Int.compare x y

let int_max (x : int) (y : int) = Int.max x y

(* a hot path with no allocation *)
let hot_clean (arr : int array) (i : int) = Array.unsafe_get arr i land 1
