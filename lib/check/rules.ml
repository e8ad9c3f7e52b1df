(* Typedtree rules: one pass of a Tast_iterator over a .cmt's structure,
   with targeted sub-walks for pool-task capture analysis and hot-path
   allocation scanning.

   Everything here is deliberately syntactic-plus-types: the walker sees
   the typedtree exactly as the compiler checked it (resolved paths,
   instantiated types), but performs no environment expansion — abstract
   types it cannot see through are declared in the check.hotpaths
   manifest ([immediate]/[mutable] sections) instead of guessed at. *)

open Typedtree

(* "Sat__Solver" -> "Sat.Solver" (dune's wrapped-library mangling) *)
let norm_modname s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' && Buffer.length b > 0
    then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

type ctx = {
  source_file : string;
  modname : string;
  man : Manifest.t;
  poly_in_scope : bool;
  parallel_module : bool;
  (* module-local hot binding paths, e.g. "propagate" for
     Sat.Solver.propagate when analyzing Sat__Solver *)
  hot_bindings : (string, unit) Hashtbl.t;
  (* Ident.unique_name -> bound expression, for resolving
     `Pool.run_pinned (List.init k run_worker)` where run_worker is a
     locally-defined function *)
  bindings : (string, expression) Hashtbl.t;
  mutable findings : Finding.t list;
  mutable attr_waivers : (string * string) list;  (* (rule-id, reason) *)
  mutable symbol : string list;  (* enclosing bindings, innermost first *)
}

let current_symbol ctx = String.concat "." (List.rev ctx.symbol)

let emit ctx rule (loc : Location.t) fmt =
  Format.kasprintf
    (fun message ->
      let id = Finding.rule_id rule in
      let waived =
        List.find_map
          (fun (r, reason) -> if String.equal r id then Some reason else None)
          ctx.attr_waivers
      in
      let pos = loc.loc_start in
      let f =
        Finding.make ~rule ~file:ctx.source_file ~line:pos.pos_lnum
          ~col:(pos.pos_cnum - pos.pos_bol)
          ~symbol:(current_symbol ctx) ~message
      in
      let f = match waived with Some r -> Finding.waive f r | None -> f in
      ctx.findings <- f :: ctx.findings)
    fmt

(* [@check.allow "rule" "reason"] — also accepted as a pair literal.  A
   missing or empty reason is itself a finding: waivers must explain
   themselves. *)
let parse_allow (attr : Parsetree.attribute) =
  if not (String.equal attr.attr_name.txt "check.allow") then None
  else
    let str e =
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _)) -> Some s
      | _ -> None
    in
    match attr.attr_payload with
    | Parsetree.PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
        match e.pexp_desc with
        | Parsetree.Pexp_apply (f, [ (_, arg) ]) -> (
            match (str f, str arg) with
            | Some rule, Some reason -> Some (rule, reason)
            | _ -> None)
        | Parsetree.Pexp_tuple [ a; b ] -> (
            match (str a, str b) with
            | Some rule, Some reason -> Some (rule, reason)
            | _ -> None)
        | Parsetree.Pexp_constant (Parsetree.Pconst_string (rule, _, _)) ->
            Some (rule, "")
        | _ -> None)
    | _ -> None

let push_attrs ctx (attrs : Parsetree.attributes) =
  let pushed = ref 0 in
  List.iter
    (fun attr ->
      match parse_allow attr with
      | None -> ()
      | Some (rule, reason) ->
          if String.equal (String.trim reason) "" then
            emit ctx Finding.Waiver_no_reason attr.Parsetree.attr_loc
              "[@check.allow %S] has no reason; every waiver must explain \
               itself"
              rule
          else begin
            ctx.attr_waivers <- (rule, reason) :: ctx.attr_waivers;
            incr pushed
          end)
    attrs;
  !pushed

let pop_attrs ctx n =
  for _ = 1 to n do
    match ctx.attr_waivers with
    | _ :: rest -> ctx.attr_waivers <- rest
    | [] -> ()
  done

let with_attrs ctx attrs f =
  let n = push_attrs ctx attrs in
  Fun.protect ~finally:(fun () -> pop_attrs ctx n) f

(* ---------- path and type classification ---------- *)

let path_name p = norm_modname (Path.name p)

let pool_submit_fns = [ "Runtime.Pool.run_pinned"; "Pool.run_pinned" ]

let is_pool_submit name = List.mem name pool_submit_fns

let poly_ops =
  [
    "Stdlib.compare";
    "Stdlib.=";
    "Stdlib.<>";
    "Stdlib.<";
    "Stdlib.>";
    "Stdlib.<=";
    "Stdlib.>=";
    "Stdlib.min";
    "Stdlib.max";
  ]

let raise_fns =
  [
    "Stdlib.raise";
    "Stdlib.raise_notrace";
    "Stdlib.failwith";
    "Stdlib.invalid_arg";
  ]

let is_printf name =
  String.starts_with ~prefix:"Stdlib.Printf." name
  || String.starts_with ~prefix:"Stdlib.Format." name

(* stderr-bound emitters are error-path by nature *)
let is_error_printf name =
  List.mem name
    [ "Stdlib.Printf.eprintf"; "Stdlib.Format.eprintf"; "Stdlib.prerr_endline"; "Stdlib.prerr_string" ]

let array_set_fns =
  [
    "Stdlib.Array.set";
    "Stdlib.Array.unsafe_set";
    "Stdlib.Array.fill";
    "Stdlib.Array.blit";
    "Stdlib.Bytes.set";
    "Stdlib.Bytes.unsafe_set";
    "Stdlib.Bytes.fill";
    "Stdlib.Bytes.blit";
  ]

let rec first_arg_type ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | Types.Tpoly (t, _) -> first_arg_type t
  | _ -> None

(* Float, string and bytes count as "immediate" here: ocamlopt
   specializes the comparison primitives (%equal, %compare, the ordering
   operators) at those statically known types, so no generic caml_compare
   call survives — and string hashing is a byte scan, not a structural
   recursion, so packed-string hash keys are exactly what the poly-hash
   rule asks violators to switch to.  min/max are different — they are
   ordinary functions, never specialized at any type. *)
let rec type_class man ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      if
        Path.same p Predef.path_int
        || Path.same p Predef.path_bool
        || Path.same p Predef.path_char
        || Path.same p Predef.path_unit
        || Path.same p Predef.path_float
        || Path.same p Predef.path_string
        || Path.same p Predef.path_bytes
      then `Immediate
      else
        let n = path_name p in
        if List.mem n man.Manifest.immediate_types then `Immediate
        else `Boxed n
  | Types.Ttuple _ -> `Boxed "a tuple"
  | Types.Tarrow _ -> `Boxed "a function"
  | Types.Tvar _ | Types.Tunivar _ -> `Unknown
  | Types.Tpoly (t, _) -> type_class man t
  | _ -> `Unknown

(* substring match on a dot-path component, so both Stdlib.Hashtbl.t and
   Stdlib.Hashtbl.Make(Anf.Monomial).t classify as hash tables *)
let name_mentions n component =
  let len = String.length component in
  let nl = String.length n in
  let rec go i =
    if i + len > nl then false
    else if String.sub n i len = component
            && (i = 0 || n.[i - 1] = '.')
            && (i + len = nl || n.[i + len] = '.' || n.[i + len] = '(')
    then true
    else go (i + 1)
  in
  go 0

let mutable_container man ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      let n = path_name p in
      if String.equal n "Stdlib.ref" || String.equal n "ref" then Some "ref"
      else if String.equal n "Stdlib.Atomic.t" then None
      else if name_mentions n "Hashtbl" then Some "hash table"
      else if name_mentions n "Buffer" then Some "Buffer.t"
      else if name_mentions n "Queue" then Some "Queue.t"
      else if name_mentions n "Stack" then Some "Stack.t"
      else if List.mem n man.Manifest.mutable_types then
        Some (Printf.sprintf "mutable container (%s)" n)
      else None
  | _ -> None

(* ---------- bound/free variable analysis for closures ---------- *)

let iter_expr it e = it.Tast_iterator.expr it e

let collect_bound (fexpr : expression) =
  let bound = Hashtbl.create 32 in
  let add id = Hashtbl.replace bound (Ident.unique_name id) () in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k) sub (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_var (id, _) -> add id
          | Tpat_alias (_, id, _) -> add id
          | _ -> ());
          Tast_iterator.default_iterator.pat sub p);
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_function { param; _ } -> add param
          | Texp_for (id, _, _, _, _, _) -> add id
          | Texp_letop { param; _ } -> add param
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  iter_expr it fexpr;
  bound

let lazy_idents name =
  String.starts_with ~prefix:"Stdlib.Lazy." name
  || String.equal name "CamlinternalLazy.force"

(* Scan one pool-task closure: rule 1 (captured mutable state, writes to
   captured arrays/fields) and rule 2 (lazy under a pool task). *)
let scan_task_closure ctx (fexpr : expression) =
  let bound = collect_bound fexpr in
  let is_free id = not (Hashtbl.mem bound (Ident.unique_name id)) in
  let reported = Hashtbl.create 8 in
  let once key f = if not (Hashtbl.mem reported key) then begin Hashtbl.add reported key (); f () end in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          with_attrs ctx e.exp_attributes @@ fun () ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _) when is_free id -> (
              match mutable_container ctx.man e.exp_type with
              | Some kind ->
                  once ("cap:" ^ Ident.unique_name id) (fun () ->
                      emit ctx Finding.Domain_capture e.exp_loc
                        "pool task captures non-atomic mutable state: %s %s"
                        kind (Ident.name id))
              | None -> ())
          | Texp_ident (p, _, _) when lazy_idents (path_name p) ->
              emit ctx Finding.Lazy_in_parallel e.exp_loc
                "%s under a pool task: forcing from several domains races \
                 (Lazy.RacyLazy)"
                (path_name p)
          | Texp_lazy _ ->
              emit ctx Finding.Lazy_in_parallel e.exp_loc
                "lazy block under a pool task: forcing from several domains \
                 races (Lazy.RacyLazy)"
          | Texp_setfield (r, _, lbl, _) -> (
              match r.exp_desc with
              | Texp_ident (Path.Pident id, _, _) when is_free id ->
                  emit ctx Finding.Domain_capture e.exp_loc
                    "pool task writes mutable field %s of captured %s"
                    lbl.lbl_name (Ident.name id)
              | Texp_ident (p, _, _) ->
                  emit ctx Finding.Domain_capture e.exp_loc
                    "pool task writes mutable field %s of global %s"
                    lbl.lbl_name (path_name p)
              | _ -> ())
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
            when List.mem (path_name p) array_set_fns -> (
              match args with
              | (_, Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ })
                :: _
                when is_free id ->
                  once ("wr:" ^ Ident.unique_name id) (fun () ->
                      emit ctx Finding.Domain_capture e.exp_loc
                        "pool task writes captured array/bytes %s via %s"
                        (Ident.name id) (path_name p))
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  iter_expr it fexpr

(* Resolve a pool-call argument to the closures it denotes: syntactic
   closures anywhere in the argument, plus (through a few levels of
   local indirection) closures in the binding of a locally-defined
   function passed by name — directly or inside a thunk-list literal. *)
let rec task_closures ctx depth (e : expression) =
  if depth > 3 then []
  else
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> (
        match Hashtbl.find_opt ctx.bindings (Ident.unique_name id) with
        | Some bound -> task_closures ctx (depth + 1) bound
        | None -> [])
    | Texp_function _ -> [ e ]
    | _ ->
        let out = ref [] in
        let it =
          {
            Tast_iterator.default_iterator with
            expr =
              (fun sub e' ->
                match e'.exp_desc with
                | Texp_function _ -> out := e' :: !out
                | Texp_ident (Path.Pident id, _, _) -> (
                    match Hashtbl.find_opt ctx.bindings (Ident.unique_name id) with
                    | Some bound ->
                        out := List.rev_append (task_closures ctx (depth + 1) bound) !out
                    | None -> ())
                | _ -> Tast_iterator.default_iterator.expr sub e');
          }
        in
        iter_expr it e;
        List.rev !out

let analyze_pool_call ctx args =
  List.iter
    (fun (_, arg) ->
      match arg with
      | None -> ()
      | Some e ->
          List.iter (scan_task_closure ctx) (task_closures ctx 0 e))
    args

(* ---------- hot-path allocation scanning (rule 3) ---------- *)

let scan_hotpath ctx (vb_expr : expression) =
  let error_depth = ref 0 in
  let rec hot_it =
    {
      Tast_iterator.default_iterator with
      expr = (fun sub e -> hot_expr sub e);
    }
  and hot_expr sub e =
    with_attrs ctx e.exp_attributes @@ fun () ->
    let ok = !error_depth = 0 in
    let alloc fmt = emit ctx Finding.Hotpath_alloc e.exp_loc fmt in
    match e.exp_desc with
    | Texp_function _ ->
        if ok then alloc "closure allocation in hot path";
        (* a curried chain is one runtime closure: emit once, then resume
           scanning at the innermost bodies *)
        let rec chain e' =
          match e'.exp_desc with
          | Texp_function { cases; _ } ->
              List.iter (fun c -> chain c.c_rhs) cases
          | _ -> hot_expr sub e'
        in
        (match e.exp_desc with
        | Texp_function { cases; _ } ->
            List.iter (fun c -> chain c.c_rhs) cases
        | _ -> ())
    | Texp_lazy _ when ok ->
        alloc "lazy block allocation in hot path";
        Tast_iterator.default_iterator.expr sub e
    | Texp_tuple _ when ok ->
        alloc "tuple allocation in hot path";
        Tast_iterator.default_iterator.expr sub e
    | Texp_record _ when ok ->
        alloc "record allocation in hot path";
        Tast_iterator.default_iterator.expr sub e
    | Texp_array _ when ok ->
        alloc "array literal allocation in hot path";
        Tast_iterator.default_iterator.expr sub e
    | Texp_construct (_, cd, args) when ok && args <> [] ->
        alloc "constructor %s allocation in hot path" cd.cstr_name;
        Tast_iterator.default_iterator.expr sub e
    | Texp_let (_, vbs, _) ->
        if ok then
          List.iter
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) -> (
                  match Types.get_desc vb.vb_pat.pat_type with
                  | Types.Tconstr (p, _, _)
                    when Path.same p Predef.path_float ->
                      emit ctx Finding.Hotpath_alloc vb.vb_pat.pat_loc
                        "float let-binding %s boxes in hot path"
                        (Ident.name id)
                  | _ -> ())
              | _ -> ())
            vbs;
        Tast_iterator.default_iterator.expr sub e
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
      when List.mem (path_name p) raise_fns ->
        (* allocations while building an exception are error-path *)
        incr error_depth;
        Fun.protect
          ~finally:(fun () -> decr error_depth)
          (fun () -> Tast_iterator.default_iterator.expr sub e)
    | Texp_assert _ ->
        incr error_depth;
        Fun.protect
          ~finally:(fun () -> decr error_depth)
          (fun () -> Tast_iterator.default_iterator.expr sub e)
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
      when ok && String.equal (path_name p) "Stdlib.ref" ->
        alloc "ref cell allocation in hot path";
        Tast_iterator.default_iterator.expr sub e
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
      when ok && is_printf (path_name p)
           && not (is_error_printf (path_name p)) ->
        alloc "%s in non-error hot path" (path_name p);
        Tast_iterator.default_iterator.expr sub e
    | Texp_apply (_, _) -> (
        (if ok then
           match Types.get_desc e.exp_type with
           | Types.Tarrow _ ->
               alloc "partial application allocates a closure in hot path"
           | _ -> ());
        Tast_iterator.default_iterator.expr sub e)
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  (* the binding's own curried parameter chain is not an allocation: peel
     it, scanning only the bodies *)
  let rec peel e =
    with_attrs ctx e.exp_attributes @@ fun () ->
    match e.exp_desc with
    | Texp_function { cases; _ } -> List.iter (fun c -> peel c.c_rhs) cases
    | _ -> iter_expr hot_it e
  in
  peel vb_expr

(* ---------- per-expression checks on the main walk ---------- *)

let check_ident ctx (e : expression) p =
  let name = path_name p in
  if String.equal name "Stdlib.Obj.magic" then
    emit ctx Finding.Obj_magic e.exp_loc
      "Obj.magic breaks every typing guarantee the analyzer relies on";
  if ctx.parallel_module && lazy_idents name then
    emit ctx Finding.Lazy_in_parallel e.exp_loc
      "%s in module %s (listed [parallel] in check.hotpaths): forcing from \
       several domains races (Lazy.RacyLazy)"
      name ctx.modname;
  if ctx.poly_in_scope && List.mem name poly_ops then
    (* Stdlib.min/max are ordinary polymorphic functions, not primitives:
       they call the generic comparison even at int, so they are flagged
       at every type.  The operators and compare are flagged only where
       the compiler cannot specialize them. *)
    let never_specialized =
      String.equal name "Stdlib.min" || String.equal name "Stdlib.max"
    in
    match first_arg_type e.exp_type with
    | None -> ()
    | Some a -> (
        match type_class ctx.man a with
        | `Immediate when never_specialized ->
            let op = if String.equal name "Stdlib.min" then "min" else "max" in
            emit ctx Finding.Poly_compare e.exp_loc
              "%s never specializes (generic comparison even at immediate \
               types): use Int.%s/Float.%s"
              name op op
        | `Immediate -> ()
        | `Boxed tyname ->
            emit ctx Finding.Poly_compare e.exp_loc
              "polymorphic %s at %s: use a monomorphic comparison" name tyname
        | `Unknown ->
            emit ctx Finding.Poly_compare e.exp_loc
              "polymorphic %s at an unknown type: monomorphize or waive" name)

let check_apply ctx (e : expression) f args =
  match f.exp_desc with
  | Texp_ident (p, _, _) -> (
      let name = path_name p in
      if is_pool_submit name then analyze_pool_call ctx args;
      if ctx.poly_in_scope then
        if String.equal name "Stdlib.Hashtbl.create" then (
          match Types.get_desc e.exp_type with
          | Types.Tconstr (_, [ k; _ ], _) -> (
              match type_class ctx.man k with
              | `Boxed tyname ->
                  emit ctx Finding.Poly_hash e.exp_loc
                    "structural Hashtbl keyed on %s: hashing recurses over \
                     the key on every probe — pack a canonical immediate key"
                    tyname
              | _ -> ())
          | _ -> ())
        else if String.equal name "Stdlib.Hashtbl.hash" then
          match first_arg_type f.exp_type with
          | Some a -> (
              match type_class ctx.man a with
              | `Boxed tyname ->
                  emit ctx Finding.Poly_hash e.exp_loc
                    "Hashtbl.hash at %s: structural hashing of a boxed key"
                    tyname
              | _ -> ())
          | None -> ())
  | _ -> ()

(* ---------- the main walk ---------- *)

let collect_bindings structure =
  let tbl = Hashtbl.create 64 in
  let it =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun sub vb ->
          (match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) ->
              Hashtbl.replace tbl (Ident.unique_name id) vb.vb_expr
          | _ -> ());
          Tast_iterator.default_iterator.value_binding sub vb);
    }
  in
  it.structure it structure;
  tbl

let analyze ~manifest ~source_file ~modname structure =
  let modname = norm_modname modname in
  let man = manifest in
  let starts_with_dir prefix =
    String.starts_with ~prefix source_file
  in
  let hot_bindings = Hashtbl.create 8 in
  List.iter
    (fun entry ->
      let prefix = modname ^ "." in
      if String.starts_with ~prefix entry then
        Hashtbl.replace hot_bindings
          (String.sub entry (String.length prefix)
             (String.length entry - String.length prefix))
          ())
    man.Manifest.hotpaths;
  let ctx =
    {
      source_file;
      modname;
      man;
      poly_in_scope = List.exists starts_with_dir man.Manifest.poly_scope;
      parallel_module = List.mem modname man.Manifest.parallel_modules;
      hot_bindings;
      bindings = collect_bindings structure;
      findings = [];
      attr_waivers = [];
      symbol = [];
    }
  in
  let it =
    {
      Tast_iterator.default_iterator with
      structure_item =
        (fun sub si ->
          (* [@@@check.allow "rule" "reason"] arms a waiver for the rest of
             the module *)
          (match si.str_desc with
          | Tstr_attribute attr -> ignore (push_attrs ctx [ attr ])
          | _ -> ());
          Tast_iterator.default_iterator.structure_item sub si);
      value_binding =
        (fun sub vb ->
          with_attrs ctx vb.vb_attributes @@ fun () ->
          match vb.vb_pat.pat_desc with
          | Tpat_var (_, name) ->
              ctx.symbol <- name.txt :: ctx.symbol;
              Fun.protect
                ~finally:(fun () ->
                  ctx.symbol <- List.tl ctx.symbol)
                (fun () ->
                  if Hashtbl.mem hot_bindings (current_symbol ctx) then
                    scan_hotpath ctx vb.vb_expr;
                  Tast_iterator.default_iterator.value_binding sub vb)
          | _ -> Tast_iterator.default_iterator.value_binding sub vb);
      expr =
        (fun sub e ->
          with_attrs ctx e.exp_attributes @@ fun () ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> check_ident ctx e p
          | Texp_lazy _ when ctx.parallel_module ->
              emit ctx Finding.Lazy_in_parallel e.exp_loc
                "lazy block in module %s (listed [parallel] in \
                 check.hotpaths): forcing from several domains races \
                 (Lazy.RacyLazy)"
                ctx.modname
          | Texp_apply (f, args) -> check_apply ctx e f args
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.structure it structure;
  List.sort_uniq Finding.compare ctx.findings
