(* Tests for the solver's utility structures: the growable int vector
   (Ivec) and the activity-ordered variable heap. *)

module H = Sat.Var_heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Var_heap                                                            *)
(* ------------------------------------------------------------------ *)

let farr_init n f =
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (Int.max 1 n) in
  for i = 0 to n - 1 do
    b.{i} <- f i
  done;
  b

let farr_make n x = farr_init n (fun _ -> x)

let test_heap_max_order () =
  let n = 10 in
  let activity = farr_init n float_of_int in
  let h = H.create n activity in
  for v = 0 to n - 1 do
    H.insert h v
  done;
  (* highest activity first *)
  let order = List.init n (fun _ -> H.remove_max h) in
  Alcotest.(check (list int)) "descending activity" [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ] order;
  check "empty" true (H.is_empty h)

let test_heap_ties_by_index () =
  let activity = farr_make 5 1.0 in
  let h = H.create 5 activity in
  List.iter (H.insert h) [ 3; 1; 4; 0; 2 ];
  let order = List.init 5 (fun _ -> H.remove_max h) in
  Alcotest.(check (list int)) "ties broken by lower index" [ 0; 1; 2; 3; 4 ] order

let test_heap_update () =
  let activity = farr_init 4 float_of_int in
  let h = H.create 4 activity in
  for v = 0 to 3 do
    H.insert h v
  done;
  (* boost variable 0 past everyone *)
  activity.{0} <- 100.0;
  H.update h 0;
  check_int "boosted to top" 0 (H.remove_max h)

let test_heap_insert_idempotent () =
  let activity = farr_make 3 0.0 in
  let h = H.create 3 activity in
  H.insert h 1;
  H.insert h 1;
  check_int "single copy" 1 (H.remove_max h);
  check "now empty" true (H.is_empty h)

let test_heap_mem_and_rebuild () =
  let activity = farr_make 6 0.0 in
  let h = H.create 6 activity in
  H.insert h 2;
  check "mem" true (H.mem h 2);
  check "not mem" false (H.mem h 3);
  H.rebuild h [ 4; 5 ];
  check "rebuilt drops old" false (H.mem h 2);
  check "rebuilt has new" true (H.mem h 4 && H.mem h 5)

let test_heap_grow () =
  let activity = farr_make 2 0.0 in
  let h = H.create 2 activity in
  H.insert h 0;
  let activity' = farr_make 8 0.0 in
  activity'.{7} <- 9.0;
  let h = H.grow h 8 activity' in
  H.insert h 7;
  check_int "new var wins" 7 (H.remove_max h);
  check_int "old var kept" 0 (H.remove_max h)

let test_heap_decrease_key () =
  let activity = farr_init 5 (fun v -> float_of_int (10 * (v + 1))) in
  let h = H.create 5 activity in
  for v = 0 to 4 do
    H.insert h v
  done;
  (* demote the current maximum below everyone *)
  activity.{4} <- 1.0;
  H.update h 4;
  let order = List.init 5 (fun _ -> H.remove_max h) in
  Alcotest.(check (list int)) "demoted var drains last" [ 3; 2; 1; 0; 4 ] order

let test_heap_rescale () =
  (* VSIDS rescaling multiplies every activity by the same constant; the
     heap order must be unaffected, and updates issued afterwards must
     still land correctly at the tiny scale. *)
  let n = 8 in
  let activity = farr_init n (fun v -> float_of_int (v * v + 1)) in
  let h = H.create n activity in
  for v = 0 to n - 1 do
    H.insert h v
  done;
  for v = 0 to n - 1 do
    activity.{v} <- activity.{v} *. 1e-100;
    H.update h v
  done;
  (* post-rescale bump, as the solver does after var_decay overflow *)
  activity.{2} <- activity.{2} +. 1e-98;
  H.update h 2;
  let first = H.remove_max h in
  check_int "bumped var wins after rescale" 2 first;
  let rest = List.init (n - 1) (fun _ -> H.remove_max h) in
  Alcotest.(check (list int)) "remaining order preserved" [ 7; 6; 5; 4; 3; 1; 0 ] rest

(* Model-based randomized operations: interleave insert / update /
   remove_max against a naive reference set and check every answer. *)
let prop_heap_random_ops =
  let gen_ops =
    QCheck.Gen.(
      list_size (int_range 20 120)
        (oneof
           [
             map (fun v -> `Insert v) (int_bound 15);
             map2 (fun v a -> `Update (v, a)) (int_bound 15) (float_range 0.0 100.0);
             return `Remove_max;
           ]))
  in
  let print_ops ops =
    String.concat ";"
      (List.map
         (function
           | `Insert v -> Printf.sprintf "I%d" v
           | `Update (v, a) -> Printf.sprintf "U%d=%.2f" v a
           | `Remove_max -> "R")
         ops)
  in
  QCheck.Test.make ~name:"heap matches reference model under random ops" ~count:200
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let n = 16 in
      let activity = farr_make n 0.0 in
      let h = H.create n activity in
      let model = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Insert v ->
              H.insert h v;
              Hashtbl.replace model v ()
          | `Update (v, a) ->
              activity.{v} <- a;
              if H.mem h v then H.update h v
          | `Remove_max ->
              if Hashtbl.length model = 0 then
                ok := !ok && H.is_empty h
              else begin
                let best =
                  Hashtbl.fold
                    (fun v () acc ->
                      match acc with
                      | None -> Some v
                      | Some b ->
                          if
                            activity.{v} > activity.{b}
                            || (activity.{v} = activity.{b} && v < b)
                          then Some v
                          else acc)
                    model None
                in
                let got = H.remove_max h in
                Hashtbl.remove model got;
                ok := !ok && Some got = best
              end)
        ops;
      (* membership must agree at the end too *)
      for v = 0 to n - 1 do
        ok := !ok && H.mem h v = Hashtbl.mem model v
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Ivec (flat watcher/clause-list vector backing the arena solver)     *)
(* ------------------------------------------------------------------ *)

module IV = Sat.Ivec

let test_ivec_push_get_set () =
  let v = IV.create () in
  check_int "empty" 0 (IV.size v);
  for i = 0 to 99 do
    IV.push v (2 * i)
  done;
  check_int "size" 100 (IV.size v);
  check_int "get 0" 0 (IV.get v 0);
  check_int "get 99" 198 (IV.get v 99);
  IV.set v 5 (-7);
  check_int "set" (-7) (IV.get v 5)

let test_ivec_push2_pairs () =
  let v = IV.create ~cap:1 () in
  (* watcher-shaped payload: (cref, blocker) pairs through growth *)
  for i = 0 to 40 do
    IV.push2 v i (1000 + i)
  done;
  check_int "size" 82 (IV.size v);
  let ok = ref true in
  for i = 0 to 40 do
    ok := !ok && IV.get v (2 * i) = i && IV.get v ((2 * i) + 1) = 1000 + i
  done;
  check "pairs intact" true !ok

let test_ivec_shrink_clear_filter () =
  let v = IV.of_list [ 5; 1; 4; 2; 3 ] in
  IV.shrink v 4;
  Alcotest.(check (list int)) "shrink keeps prefix" [ 5; 1; 4; 2 ] (IV.to_list v);
  IV.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check (list int)) "filter_in_place" [ 4; 2 ] (IV.to_list v);
  IV.sort_in_place compare v;
  Alcotest.(check (list int)) "sort_in_place" [ 2; 4 ] (IV.to_list v);
  IV.clear v;
  check_int "clear" 0 (IV.size v)

let prop_ivec_matches_list =
  QCheck.Test.make ~name:"ivec round-trips and filters like a list" ~count:200
    QCheck.(pair (list small_signed_int) QCheck.small_signed_int)
    (fun (xs, pivot) ->
      let v = IV.of_list xs in
      IV.to_list v = xs
      &&
      (IV.filter_in_place (fun x -> x < pivot) v;
       IV.to_list v = List.filter (fun x -> x < pivot) xs))

let prop_heap_is_sorting =
  QCheck.Test.make ~name:"heap drains in activity order" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range 0.0 100.0))
    (fun floats ->
      let n = List.length floats in
      let arr = Array.of_list floats in
      let activity = farr_init n (fun i -> arr.(i)) in
      let h = H.create n activity in
      for v = 0 to n - 1 do
        H.insert h v
      done;
      let drained = List.init n (fun _ -> activity.{H.remove_max h}) in
      drained = List.sort (fun a b -> Float.compare b a) drained)

let suite =
  [
    ( "sat.var_heap",
      [
        Alcotest.test_case "max order" `Quick test_heap_max_order;
        Alcotest.test_case "ties by index" `Quick test_heap_ties_by_index;
        Alcotest.test_case "update after boost" `Quick test_heap_update;
        Alcotest.test_case "idempotent insert" `Quick test_heap_insert_idempotent;
        Alcotest.test_case "mem and rebuild" `Quick test_heap_mem_and_rebuild;
        Alcotest.test_case "grow" `Quick test_heap_grow;
        Alcotest.test_case "decrease-key after insert" `Quick test_heap_decrease_key;
        Alcotest.test_case "decay/rescale preserves order" `Quick test_heap_rescale;
        QCheck_alcotest.to_alcotest prop_heap_is_sorting;
        QCheck_alcotest.to_alcotest prop_heap_random_ops;
      ] );
    ( "sat.ivec",
      [
        Alcotest.test_case "push/get/set" `Quick test_ivec_push_get_set;
        Alcotest.test_case "push2 pairs" `Quick test_ivec_push2_pairs;
        Alcotest.test_case "shrink/clear/filter/sort" `Quick test_ivec_shrink_clear_filter;
        QCheck_alcotest.to_alcotest prop_ivec_matches_list;
      ] );
  ]
