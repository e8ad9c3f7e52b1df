exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* Tokenize one polynomial: variables "x<int>", constants "0"/"1",
   operators '*' and '+' (accepting '^' as a synonym for '+'). *)
type token = Tvar of int | Tconst of bool | Tmul | Tadd

let tokenize line =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = line.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '*' then (toks := Tmul :: !toks; incr i)
    else if c = '+' || c = '^' then (toks := Tadd :: !toks; incr i)
    else if c = '0' then (toks := Tconst false :: !toks; incr i)
    else if c = '1' then (toks := Tconst true :: !toks; incr i)
    else if c = 'x' || c = 'X' then begin
      incr i;
      (* accept both x3 and the original tool's x(3) *)
      let parenthesised = !i < n && line.[!i] = '(' in
      if parenthesised then incr i;
      let start = !i in
      while !i < n && line.[!i] >= '0' && line.[!i] <= '9' do incr i done;
      if !i = start then fail "variable 'x' without index in %S" line;
      let index =
        match int_of_string_opt (String.sub line start (!i - start)) with
        | Some index -> index
        | None -> fail "variable index out of range in %S" line
      in
      if parenthesised then
        if !i < n && line.[!i] = ')' then incr i
        else fail "unclosed variable parenthesis in %S" line;
      toks := Tvar index :: !toks
    end
    else fail "unexpected character %C in %S" c line
  done;
  List.rev !toks

(* Grammar: poly := term ('+' term)* ; term := factor ('*' factor)* *)
let poly_of_string line =
  let toks = tokenize line in
  if toks = [] then fail "empty polynomial";
  (* split on Tadd at top level (no parentheses in the grammar) *)
  let terms =
    let rec split cur acc = function
      | [] -> List.rev (List.rev cur :: acc)
      | Tadd :: rest ->
          if cur = [] then fail "misplaced '+' in %S" line;
          split [] (List.rev cur :: acc) rest
      | t :: rest -> split (t :: cur) acc rest
    in
    split [] [] toks
  in
  let term_to_poly factors =
    if factors = [] then fail "empty term in %S" line;
    (* a term is factors joined by '*'; expect alternating factor/Tmul *)
    let rec go expect_factor acc = function
      | [] -> if expect_factor then fail "trailing '*' in %S" line else acc
      | Tmul :: rest ->
          if expect_factor then fail "misplaced '*' in %S" line;
          go true acc rest
      | Tadd :: _ -> assert false (* removed by the top-level split *)
      | (Tvar _ | Tconst _) as f :: rest ->
          if not expect_factor then fail "missing '*' between factors in %S" line;
          let factor =
            match f with
            | Tvar x -> Poly.var x
            | Tconst b -> Poly.constant b
            | Tmul | Tadd -> assert false
          in
          go false (Poly.mul acc factor) rest
    in
    go true Poly.one factors
  in
  List.fold_left (fun acc t -> Poly.add acc (term_to_poly t)) Poly.zero terms

let is_comment line =
  let line = String.trim line in
  String.length line = 0 || line.[0] = 'c' || line.[0] = '#'

let parse_string s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> not (is_comment l))
  |> List.map poly_of_string

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      parse_string (really_input_string ic len))

let write_string polys =
  let b = Buffer.create 1024 in
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b '\n';
      Poly.add_to_buffer b p)
    polys;
  Buffer.add_char b '\n';
  Buffer.contents b

let write_file path polys =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "c ANF system: one polynomial per line, equated to 0\n";
      output_string oc (write_string polys))
