let count sev findings =
  List.length (List.filter (fun f -> f.Finding.severity = sev) findings)

(* Meta rules emitted by the driver itself (not the catalog or the
   whole-program passes); shared with the SARIF reporter's rule table. *)
let meta_rules =
  [
    ("parse-error", Finding.Error, "The file failed to parse.");
    ( "unused-suppression",
      Finding.Warning,
      "An inline bwclint allow comment matches no finding in any pass — \
       syntactic or whole-program — and should be removed." );
    ( "suppression-missing-reason",
      Finding.Warning,
      "An inline suppression is in use but carries no '-- reason' \
       justification; audited suppressions must say why they are safe." );
  ]

let human ppf (r : Engine.result) =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) r.findings;
  let errors = count Finding.Error r.findings in
  let warnings = count Finding.Warning r.findings in
  Format.fprintf ppf "%d file%s scanned: %d error%s, %d warning%s"
    r.files_scanned
    (if r.files_scanned = 1 then "" else "s")
    errors
    (if errors = 1 then "" else "s")
    warnings
    (if warnings = 1 then "" else "s");
  if r.suppressions_used > 0 then
    Format.fprintf ppf " (%d suppression%s in effect)" r.suppressions_used
      (if r.suppressions_used = 1 then "" else "s");
  Format.fprintf ppf "@."

let suppression_audit ppf (r : Engine.result) =
  if r.suppressed <> [] then begin
    Format.fprintf ppf "audited suppressions:@.";
    List.iter
      (fun ((f : Finding.t), reason) ->
        Format.fprintf ppf "  %s:%d [%s] -- %s@." f.file f.line f.rule
          (if reason = "" then "(no reason recorded)" else reason))
      r.suppressed
  end

(* ----- JSON ----- *)

let json_finding (f : Finding.t) : Bwc_json.t =
  let open Bwc_json in
  let witness =
    if f.witness = [] then []
    else [ ("witness", Arr (List.map (fun step -> Str step) f.witness)) ]
  in
  Obj
    ([ ("file", Str f.file); ("line", Int f.line); ("col", Int f.col);
       ("rule", Str f.rule); ("severity", Str (Finding.severity_label f.severity));
       ("key", Str (Finding.stable_key f)); ("message", Str f.message) ]
    @ witness)

let json (r : Engine.result) =
  let open Bwc_json in
  let suppressed (f, reason) = Obj [ ("reason", Str reason); ("finding", json_finding f) ] in
  to_rows
    (Obj
       [ ("files_scanned", Int r.files_scanned);
         ("errors", Int (count Finding.Error r.findings));
         ("warnings", Int (count Finding.Warning r.findings));
         ("suppressions_used", Int r.suppressions_used);
         ("parse_failed", Bool r.parse_failed);
         ("findings", Arr (List.map json_finding r.findings));
         ("suppressed", Arr (List.map suppressed r.suppressed)) ])

let rule_catalog ppf () =
  let line id sev doc =
    Format.fprintf ppf "%-34s %-7s %s@." id (Finding.severity_label sev) doc
  in
  List.iter
    (fun (r : Rules.t) ->
      line r.id r.severity r.doc;
      if r.only_paths <> [] then
        Format.fprintf ppf "%-34s         only: %s@." ""
          (String.concat ", " r.only_paths);
      if r.allow_paths <> [] then
        Format.fprintf ppf "%-34s         exempt: %s@." ""
          (String.concat ", " r.allow_paths))
    Rules.all;
  Format.fprintf ppf "@.whole-program rules:@.";
  List.iter (fun (id, sev, doc) -> line id sev doc) (Taint.rules @ Exports.rules);
  Format.fprintf ppf "@.driver meta rules:@.";
  List.iter (fun (id, sev, doc) -> line id sev doc) meta_rules
