(** The lint driver: parse sources with compiler-libs, run the
    syntactic rule catalog, build the cross-module call graph, run the
    whole-program passes (determinism taint, domain-safety audit, dead
    exports), and
    judge suppressions last.

    All passes share one suppression table per file and staleness is
    computed only after every pass has marked what it used — a
    suppression justified purely by an interprocedural finding is never
    reported stale. *)

type result = {
  findings : Finding.t list;
      (** sorted by location; suppressed findings removed *)
  suppressed : (Finding.t * string) list;
      (** what inline suppressions silenced, with the audit reason
          (empty string when the comment has none) *)
  files_scanned : int;
  suppressions_used : int;
  parse_failed : bool;  (** at least one file failed to parse *)
}

val empty : result

val parse_error_rule : string
(** Rule id used for findings describing files that fail to parse. *)

val unused_suppression_rule : string
(** Rule id for stale suppression comments that match nothing in any
    pass. *)

val missing_reason_rule : string
(** Rule id for suppressions that are in use but carry no ['-- reason']
    justification. *)

val parse :
  path:string -> string -> (Ast_scan.file, Finding.t) Stdlib.result

val read_file : string -> string

val lint_sources : ?whole_program:bool -> (string * string) list -> result
(** Lint a set of (path, source) pairs as one program under every rule
    of {!Rules.all}.  [whole_program] (default [true]) controls the
    call-graph passes. *)

val discover : string list -> string list
(** Expand files/directories into a sorted list of .ml/.mli files.
    Recursive descent skips [_build], dot-directories and directories
    named [fixtures] (deliberately-dirty lint corpora); explicitly
    passed paths are always taken. *)

val lint_paths : ?whole_program:bool -> string list -> result
(** [discover] then lint everything as one program. *)
