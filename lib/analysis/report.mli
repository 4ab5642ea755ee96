(** Reporters for lint results. *)

val meta_rules : (string * Finding.severity * string) list
(** Rules emitted by the driver itself (parse-error,
    unused-suppression, suppression-missing-reason) — shared with the
    SARIF rule table. *)

val human : Format.formatter -> Engine.result -> unit
(** One [file:line:col: severity [rule] message] line per finding
    (multi-hop findings get a [witness:] continuation line), then a
    summary line. *)

val suppression_audit : Format.formatter -> Engine.result -> unit
(** The audited-suppression trail: one line per silenced finding with
    its recorded reason. *)

val json : Engine.result -> string
(** Machine-readable report in the {!Bwc_json.to_rows} layout:
    [{"files_scanned":., "errors":., "warnings":., "suppressions_used":.,
      "parse_failed":., "findings":[{file,line,col,rule,severity,key,
      message,witness?}], "suppressed":[{reason,finding}]}] *)

val rule_catalog : Format.formatter -> unit -> unit
(** Human-readable listing of every rule — syntactic catalog,
    whole-program families, driver meta rules — with severity and
    doc. *)
