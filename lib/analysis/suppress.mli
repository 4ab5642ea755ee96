(** Per-line lint suppressions.

    A comment [(* bwclint: allow <rule> -- <reason> *)] (comma-separated
    rule ids, or [all]) suppresses matching findings on its own line and
    on the line directly below, so both trailing comments and a
    standalone comment above the offending expression work.  The
    [-- <reason>] clause is the audit justification surfaced by the
    JSON/SARIF reporters; omitting it is itself a finding. *)

type entry = {
  s_line : int;  (** line the comment appears on, 1-based *)
  rules : string list;  (** [[]] means all rules *)
  reason : string option;
  mutable used : bool;
}

type t

val scan : string -> t
(** Collect suppression comments from raw source text. *)

val find : t -> rule:string -> line:int -> entry option
(** The suppression entry covering a finding of [rule] at [line], if
    any.  Marks the matching entry as used — both the per-file rule pass
    and the whole-program passes consult this, so a suppression
    justified only by an interprocedural finding is still "used" and not
    reported stale. *)

val entries : t -> entry list
