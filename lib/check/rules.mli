(** The typedtree rules: one analysis pass over a compiled module.

    [analyze] walks a [.cmt] implementation structure and returns the
    findings (waived and unwaived, deduplicated and sorted) for:

    - {b domain-capture}: closures handed to [Runtime.Pool]
      ([run]/[map_list]/[parallel_for]) must not
      capture non-atomic mutable state — refs, hash tables, [Buffer.t],
      [Queue.t], [Stack.t], manifest-declared [[mutable]] types — nor
      write captured arrays/bytes or mutable record fields.  Locally
      defined functions passed by name are resolved one level deep.
    - {b lazy-in-parallel}: no [lazy]/[Lazy.force] inside a pool-task
      closure, nor anywhere in a module listed under [[parallel]].
    - {b hotpath-alloc}: bindings named under [[hotpaths]] are scanned for
      allocation constructs (closures, tuples, records, non-constant
      constructors, array literals, lazy blocks, partial applications,
      float let-bindings, [Printf]/[Format] outside error paths).
      Subtrees reached only while building an exception are exempt.
    - {b poly-compare}/{b poly-hash}: within the manifest's
      [[poly-scope]] directories, [Stdlib.compare]/[=]/[<>]/ordering
      operators/[min]/[max] at non-immediate or unknown types, and
      structural [Hashtbl]s keyed on boxed types.
    - {b obj-magic}: any [Obj.magic], anywhere.

    Waivers: [@check.allow "rule" "reason"] on any enclosing expression or
    binding (or [@@@check.allow ...] for the rest of the module) marks
    matching findings waived; an empty reason is a finding of its own. *)

(** Dune's wrapped-library mangling undone: ["Sat__Solver"] ->
    ["Sat.Solver"]. *)
val norm_modname : string -> string

val analyze :
  manifest:Manifest.t ->
  source_file:string ->
  modname:string ->
  Typedtree.structure ->
  Finding.t list
