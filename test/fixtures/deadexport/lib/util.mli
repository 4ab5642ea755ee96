(* Dead-export corpus: [used] is live, [unused] no other unit references,
   [for_tests] only test/ references, and [oracle] only test/ references
   behind an allow that names its caller. *)
val used : int -> int
val unused : int -> int
val for_tests : int -> int
(* bwclint: allow test-only-export -- test/check.ml checks for_tests against it (reference oracle) *)
val oracle : int -> int
