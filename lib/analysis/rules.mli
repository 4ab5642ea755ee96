(** The lint rule catalog.

    Rules match syntactic patterns on the untyped Parsetree by
    (Stdlib-normalized) identifier path.  Severity [Error] marks hard
    invariant breaks (determinism, robustness), [Warning] marks
    complexity/hygiene concerns; both fail the lint run. *)

type t = {
  id : string;
  severity : Finding.severity;
  doc : string;
  only_paths : string list;
      (** non-empty: rule applies only to files whose path contains one
          of these fragments *)
  allow_paths : string list;
      (** files whose path contains one of these fragments are exempt *)
  check : path:string -> Ast_scan.file -> Finding.t list;
}

val applies : t -> string -> bool
(** Whether the rule runs on the given file path (only/allow lists). *)

val path_exempt : t -> string -> bool
(** Whether the path is on the rule's audited allowlist — also consulted
    by the whole-program effect pass, so e.g. [lib/obs/span.ml] is not a
    wall-clock taint source. *)

(** Shared primitive catalogs — the same ident lists seed both the
    syntactic rules and the whole-program effect pass ({!Effects}), so
    the two analysis layers agree on what counts as a source. *)

val hashtbl_iter_idents : string list
val wall_clock_idents : string list
val print_idents : string list
val partial_idents : string list

val all : t list
val find : string -> t option
