(* Whole-program dead-export pass.

   Every [val] a library interface exports (lib/**/*.mli, nested
   [module X : sig ... end] blocks included) is matched against the
   reference index of the call graph.  An export no other unit
   references is dead; one only test/ references, while its own unit
   never calls it, is test-only.  The
   index over-approximates unresolved paths, so a resolution miss can
   hide a finding but never invent one.

   The innermost lib/, bin/, bench/, examples/ or test/ directory of a
   path decides its role, so a corpus under test/fixtures/x/lib/ is a
   library and one under test/fixtures/x/bin/ a binary. *)

let dead_rule = "dead-export"
let test_only_rule = "test-only-export"

let rules =
  [
    ( dead_rule,
      Finding.Warning,
      "A value a lib/ interface exports is referenced by no other unit: \
       delete it, or drop it from the .mli when its own unit uses it." );
    ( test_only_rule,
      Finding.Warning,
      "A value a lib/ interface exports is referenced only from test/ and \
       never by its own unit: delete it with the tests that alone exercise \
       it, or allow it with a reason naming the caller (a reference \
       oracle).  An export its own unit also calls is exempt: tests may \
       reach a unit's working code through its interface." );
  ]

type export = {
  id : string;
  name : string;  (* "Unit.Sub.x" *)
  last : string;
  file : string;
  line : int;
  col : int;
}

let roles = [ "lib"; "bin"; "bench"; "examples"; "test" ]

let role path =
  List.fold_left
    (fun acc c -> if List.mem c roles then Some c else acc)
    None
    (String.split_on_char '/' (Callgraph.unit_dir path))

let exports ~path (sg : Parsetree.signature) =
  let dir = Callgraph.unit_dir path and unit = Callgraph.unit_name path in
  let rec items stack sg =
    List.concat_map
      (fun (si : Parsetree.signature_item) ->
        match si.psig_desc with
        | Psig_value vd ->
            let name = String.concat "." (List.rev (vd.pval_name.txt :: stack)) in
            let pos = vd.pval_loc.Location.loc_start in
            [
              {
                id = dir ^ "//" ^ name;
                name;
                last = vd.pval_name.txt;
                file = path;
                line = pos.pos_lnum;
                col = pos.pos_cnum - pos.pos_bol;
              };
            ]
        | Psig_module md -> module_decl stack md
        | Psig_recmodule mds -> List.concat_map (module_decl stack) mds
        | _ -> [])
      sg
  and module_decl stack (md : Parsetree.module_declaration) =
    match (md.pmd_name.txt, md.pmd_type.pmty_desc) with
    | Some m, Pmty_signature sg -> items (m :: stack) sg
    | _ -> []
  in
  items [ unit ] sg

let run ~(audited : Taint.audited) cg files =
  let exports =
    List.concat_map
      (fun (path, file) ->
        match file with
        | Ast_scan.Signature sg when role path = Some "lib" -> exports ~path sg
        | _ -> [])
      files
  in
  let by_id = Hashtbl.create 1024 and by_last = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      Hashtbl.replace by_id e.id e;
      Hashtbl.add by_last e.last e)
    exports;
  (* export id -> referencing files, most recent first *)
  let users = Hashtbl.create 1024 in
  List.iter
    (fun (file, targets) ->
      let mark e =
        let cur = Option.value ~default:[] (Hashtbl.find_opt users e.id) in
        if not (List.mem file cur) then Hashtbl.replace users e.id (file :: cur)
      in
      List.iter
        (function
          | Callgraph.Value id -> Option.iter mark (Hashtbl.find_opt by_id id)
          | Callgraph.Named x -> List.iter mark (Hashtbl.find_all by_last x)
          | Callgraph.Prefix p ->
              List.iter
                (fun e -> if String.starts_with ~prefix:p e.id then mark e)
                exports)
        targets)
    (Callgraph.references cg);
  let findings = ref [] and suppressed = ref [] in
  List.iter
    (fun e ->
      let own f =
        Callgraph.unit_dir f = Callgraph.unit_dir e.file
        && Callgraph.unit_name f = Callgraph.unit_name e.file
      in
      let users = Option.value ~default:[] (Hashtbl.find_opt users e.id) in
      let others = List.filter (fun f -> not (own f)) users in
      let tests = List.filter (fun f -> role f = Some "test") others in
      let report rule message =
        let f =
          Finding.make ~key:e.name ~rule ~severity:Finding.Warning ~file:e.file
            ~line:e.line ~col:e.col
            ~message:(Printf.sprintf "%s is exported but %s" e.name message)
            ()
        in
        match audited ~rule ~file:e.file ~line:e.line with
        | Some reason ->
            suppressed := (f, Option.value ~default:"" reason) :: !suppressed
        | None -> findings := f :: !findings
      in
      if others = [] then
        report dead_rule
          (if List.exists own users then
             "used only inside its unit: drop it from the .mli"
           else "unused: delete it")
      else if List.length tests = List.length others && not (List.exists own users)
      then
        report test_only_rule
          (Printf.sprintf "only test/ references it (%s)"
             (String.concat ", " (List.sort String.compare tests))))
    exports;
  { Taint.findings = !findings; suppressed = !suppressed }
