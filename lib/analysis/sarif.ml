(* SARIF 2.1.0 output so findings land in code-scanning UIs (GitHub
   "Security" tab) with witness paths rendered as code flows.

   Suppressed findings are still emitted, carrying an inSource
   suppression object with the audit justification — the scanning UI is
   the audit trail; only unsuppressed findings affect the exit code
   (that logic lives in bin/bwclint, not here). *)

let schema = "https://json.schemastore.org/sarif-2.1.0.json"

let all_rules () =
  List.map (fun (r : Rules.t) -> (r.id, r.severity, r.doc)) Rules.all
  @ Taint.rules @ Report.meta_rules

let level = function Finding.Error -> "error" | Finding.Warning -> "warning"

open Bwc_json

let text s = Obj [ ("text", Str s) ]

let physical_location ?column (f : Finding.t) =
  let column = match column with Some c -> [ ("startColumn", Int c) ] | None -> [] in
  ( "physicalLocation",
    Obj
      [ ("artifactLocation", Obj [ ("uri", Str f.file) ]);
        ("region", Obj (("startLine", Int (max 1 f.line)) :: column)) ] )

let code_flow (f : Finding.t) =
  if List.length f.witness < 2 then []
  else
    let step i name =
      let logical =
        [ ("logicalLocations", Arr [ Obj [ ("fullyQualifiedName", Str name) ] ]);
          ("message", text name) ]
      in
      Obj [ ("location", Obj (if i = 0 then physical_location f :: logical else logical)) ]
    in
    let thread = Obj [ ("locations", Arr (List.mapi step f.witness)) ] in
    [ ("codeFlows", Arr [ Obj [ ("threadFlows", Arr [ thread ]) ] ]) ]

let result ?suppression (f : Finding.t) =
  let suppressions =
    match suppression with
    | None -> []
    | Some reason ->
        let reason = if reason = "" then "(no reason recorded)" else reason in
        let audit = Obj [ ("kind", Str "inSource"); ("justification", Str reason) ] in
        [ ("suppressions", Arr [ audit ]) ]
  in
  Obj
    ([ ("ruleId", Str f.rule); ("level", Str (level f.severity)) ]
    @ code_flow f
    @ [ ("message", text f.message);
        ("locations", Arr [ Obj [ physical_location ~column:(max 1 (f.col + 1)) f ] ]) ]
    @ suppressions)

let to_string ?(suppressed = []) findings =
  let rule (id, sev, doc) =
    Obj
      [ ("id", Str id); ("shortDescription", text doc);
        ("defaultConfiguration", Obj [ ("level", Str (level sev)) ]) ]
  in
  let driver =
    Obj
      [ ("name", Str "bwclint");
        ("informationUri", Str "https://example.invalid/bwcluster/docs/DESIGN.md");
        ("version", Str "2.0.0"); ("rules", Arr (List.map rule (all_rules ()))) ]
  in
  let results =
    List.map (fun f -> result f) findings
    @ List.map (fun (f, reason) -> result ~suppression:reason f) suppressed
  in
  let run = Obj [ ("tool", Obj [ ("driver", driver) ]); ("results", Arr results) ] in
  to_rows (Obj [ ("$schema", Str schema); ("version", Str "2.1.0"); ("runs", Arr [ run ]) ])
