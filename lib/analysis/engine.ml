(* Parse, walk, propagate, filter: the lint driver.

   The run is now two-layered.  Every file is parsed exactly once; the
   per-file syntactic rules run first, then (unless [whole_program] is
   off) the call graph is built over all parsed structures and the
   whole-program passes (determinism taint, domain-safety audit, dead
   exports) run on top.  All passes share one Suppress table per file,
   and staleness is computed only after every pass has had its chance
   to mark entries used — so a suppression justified purely by an interprocedural
   finding (the callee-side audit of a taint source) is not reported
   stale by the per-file layer. *)

type result = {
  findings : Finding.t list;  (* sorted; suppressed findings removed *)
  suppressed : (Finding.t * string) list;
      (* what the suppressions silenced, with the audit reason *)
  files_scanned : int;
  suppressions_used : int;
  parse_failed : bool;
}

let empty =
  {
    findings = [];
    suppressed = [];
    files_scanned = 0;
    suppressions_used = 0;
    parse_failed = false;
  }

let parse_error_rule = "parse-error"
let unused_suppression_rule = "unused-suppression"
let missing_reason_rule = "suppression-missing-reason"

let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  try
    if Filename.check_suffix path ".mli" then
      Ok (Ast_scan.Signature (Parse.interface lexbuf))
    else Ok (Ast_scan.Structure (Parse.implementation lexbuf))
  with exn -> (
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
        let main = report.Location.main in
        Error
          (Finding.of_location ~rule:parse_error_rule ~severity:Finding.Error
             ~message:(Format.asprintf "%t" main.Location.txt)
             main.Location.loc)
    | Some `Already_displayed | None ->
        Error
          (Finding.make ~rule:parse_error_rule ~severity:Finding.Error
             ~file:path ~line:1 ~col:0
             ~message:(Printexc.to_string exn) ()))

let lint_sources ?(whole_program = true) sources =
  let parse_findings = ref [] in
  let parse_failed = ref false in
  let parsed = ref [] in
  List.iter
    (fun (path, source) ->
      match parse ~path source with
      | Error f ->
          parse_failed := true;
          parse_findings := f :: !parse_findings
      | Ok file -> parsed := (path, file, Suppress.scan source) :: !parsed)
    sources;
  let parsed = List.rev !parsed in
  let supp_of : (string, Suppress.t) Hashtbl.t =
    Hashtbl.create (List.length parsed)
  in
  List.iter (fun (path, _, supp) -> Hashtbl.replace supp_of path supp) parsed;
  let findings = ref !parse_findings in
  let suppressed = ref [] in
  let keep_or_suppress supp fs =
    List.iter
      (fun (f : Finding.t) ->
        match Suppress.find supp ~rule:f.Finding.rule ~line:f.Finding.line with
        | Some entry ->
            suppressed :=
              (f, Option.value ~default:"" entry.Suppress.reason)
              :: !suppressed
        | None -> findings := f :: !findings)
      fs
  in
  (* layer 1: per-file syntactic rules *)
  List.iter
    (fun (path, file, supp) ->
      let raw =
        List.concat_map
          (fun rule ->
            if Rules.applies rule path then rule.Rules.check ~path file else [])
          Rules.all
      in
      keep_or_suppress supp raw)
    parsed;
  (* layer 2+3: effect summaries and whole-program passes *)
  if whole_program then begin
    let files = List.map (fun (path, file, _) -> (path, file)) parsed in
    let cg = Callgraph.build files in
    let audited ~rule ~file ~line =
      match Hashtbl.find_opt supp_of file with
      | None -> None
      | Some supp -> (
          match Suppress.find supp ~rule ~line with
          | Some entry -> Some entry.Suppress.reason
          | None -> None)
    in
    List.iter
      (fun (outcome : Taint.outcome) ->
        findings := outcome.findings @ !findings;
        suppressed := outcome.suppressed @ !suppressed)
      [ Taint.run ~audited cg; Exports.run ~audited cg files ]
  end;
  (* only now, after every pass has marked what it uses, judge the
     suppression comments themselves *)
  let used_total = ref 0 in
  List.iter
    (fun (path, _, supp) ->
      List.iter
        (fun (entry : Suppress.entry) ->
          if entry.Suppress.used then begin
            incr used_total;
            if entry.Suppress.reason = None then
              findings :=
                Finding.make ~rule:missing_reason_rule
                  ~severity:Finding.Warning ~file:path
                  ~line:entry.Suppress.s_line ~col:0
                  ~message:
                    (Printf.sprintf
                       "suppression for %s is in use but has no reason; \
                        append ' -- <why this is safe>'"
                       (match entry.Suppress.rules with
                       | [] -> "all rules"
                       | rs -> String.concat ", " rs))
                  ()
                :: !findings
          end
          else
            findings :=
              Finding.make ~rule:unused_suppression_rule
                ~severity:Finding.Warning ~file:path ~line:entry.Suppress.s_line
                ~col:0
                ~message:
                  (Printf.sprintf
                     "suppression for %s matches no finding; delete it"
                     (match entry.Suppress.rules with
                     | [] -> "all rules"
                     | rs -> String.concat ", " rs))
                ()
              :: !findings)
        (Suppress.entries supp))
    parsed;
  {
    findings = List.sort Finding.compare !findings;
    suppressed =
      List.sort (fun (a, _) (b, _) -> Finding.compare a b) !suppressed;
    files_scanned = List.length sources;
    suppressions_used = !used_total;
    parse_failed = !parse_failed;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_source path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

(* Directories named "fixtures" hold deliberately-dirty lint corpora for
   the test suite; recursive discovery skips them (like _build) so
   whole-tree runs stay clean, but passing such a path explicitly still
   lints it — that is how the fixture tests and the CI regression gate
   invoke the analyzer. *)
let skip_dir entry =
  entry = "" || entry.[0] = '.' || entry = "_build" || entry = "fixtures"

let rec discover_path acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if skip_dir entry then acc
        else discover_path acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if is_source path then path :: acc
  else acc

(* Explicitly passed paths are always taken — skip_dir only filters
   *children* during recursion, so `bwclint test/fixtures/taint` lints
   the corpus that `bwclint test` skips. *)
let discover paths =
  List.sort_uniq String.compare (List.fold_left discover_path [] paths)

let lint_paths ?whole_program paths =
  lint_sources ?whole_program
    (List.map (fun path -> (path, read_file path)) (discover paths))
