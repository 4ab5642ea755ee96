(** Whole-program dead-export pass.

    Reads every [val] in the library interfaces ([.mli] files whose
    innermost lib/, bin/, bench/, examples/ or test/ directory is lib/),
    including nested
    [module X : sig ... end] blocks, and matches it against the
    reference index of {!Callgraph}:

    - [dead-export]: no other unit references the value; the message
      says "unused: delete it" or "used only inside its unit: drop it
      from the .mli".
    - [test-only-export]: only test/ references the value and its own
      unit never calls it.  An export its own unit also calls is
      exempt: tests may reach a unit's working code through its
      interface.

    An unresolved reference counts as a use of every export with that
    name, so a resolution miss can hide a finding but never invent
    one. *)

val rules : (string * Finding.severity * string) list
(** (id, severity, doc) for the catalog and SARIF rule metadata. *)

val run :
  audited:Taint.audited ->
  Callgraph.t ->
  (string * Ast_scan.file) list ->
  Taint.outcome
(** Findings for the interfaces among the files, given the graph built
    over the same files. *)
