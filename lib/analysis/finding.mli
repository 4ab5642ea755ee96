(** A single lint finding: a rule violation anchored to a source location. *)

type severity =
  | Error  (** breaks a hard invariant (determinism, robustness) *)
  | Warning  (** complexity or hygiene concern; still fails CI *)

type t = {
  rule : string;  (** rule id, e.g. ["no-stdlib-random"] *)
  severity : severity;
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as reported by the compiler *)
  message : string;
  key : string option;
      (** stable symbolic identity (whole-program findings use function
          names, which survive unrelated edits); [None] falls back to the
          line anchor *)
  witness : string list;
      (** interprocedural findings: the call chain from the reported
          function down to the primitive source, as qualified names *)
}

val severity_label : severity -> string

val make :
  ?key:string ->
  ?witness:string list ->
  rule:string ->
  severity:severity ->
  file:string ->
  line:int ->
  col:int ->
  message:string ->
  unit ->
  t

val of_location :
  rule:string ->
  severity:severity ->
  message:string ->
  Location.t ->
  t

val stable_key : t -> string
(** [key] if present, else ["L<line>"] — the identity the JSON report
    carries as ["key"]. *)

val compare : t -> t -> int
(** Orders by (file, line, col, rule, stable key). *)

val pp : Format.formatter -> t -> unit
(** [file:line:col: severity [rule] message] — editor-friendly; multi-hop
    witness paths are printed on a continuation line. *)
