(* bwclint — determinism/robustness/complexity linter for this codebase.

   Two analysis layers: per-file syntactic rules over the Parsetree, and
   whole-program passes (cross-module call graph, interprocedural
   determinism taint with witness paths, domain-safety audit) over all
   files in one run.  Exit codes: 0 clean, 1 findings, 2 internal error /
   parse failure, 124 usage error. *)

module Engine = Bwc_analysis.Engine
module Report = Bwc_analysis.Report
module Sarif = Bwc_analysis.Sarif
module Taint = Bwc_analysis.Taint
module Callgraph = Bwc_analysis.Callgraph
module Effects = Bwc_analysis.Effects

open Cmdliner

let paths_arg =
  let doc = "Files or directories to lint (expanded recursively)." in
  Arg.(value & pos_all string [ "lib"; "bin"; "bench"; "test"; "examples" ]
       & info [] ~docv:"PATH" ~doc)

let json_arg =
  let doc =
    "Also write a JSON report to $(docv) (use $(b,-) for stdout)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let sarif_arg =
  let doc =
    "Also write a SARIF 2.1.0 report to $(docv) (use $(b,-) for stdout); \
     witness paths become code flows, audited suppressions carry their \
     justification."
  in
  Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE" ~doc)

let taint_arg =
  let doc =
    "Print the closed per-function effect table (which functions \
     transitively read the clock, use randomness, iterate unordered \
     tables, ...) before the findings."
  in
  Arg.(value & flag & info [ "taint" ] ~doc)

let no_wp_arg =
  let doc =
    "Disable the whole-program passes (call graph, determinism taint, \
     domain-safety audit); run only the per-file syntactic rules."
  in
  Arg.(value & flag & info [ "no-wp" ] ~doc)

let list_rules_arg =
  let doc = "Print the rule catalog and exit." in
  Arg.(value & flag & info [ "list-rules" ] ~doc)

let quiet_arg =
  let doc = "Suppress the human-readable report on stdout." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let write_report file contents =
  match file with
  | None -> ()
  | Some "-" -> print_string contents
  | Some file -> Out_channel.with_open_text file (fun oc -> output_string oc contents)

let print_taint_table ppf paths =
  let sources =
    List.map (fun p -> (p, Engine.read_file p)) (Engine.discover paths)
  in
  let parsed =
    List.filter_map
      (fun (path, src) ->
        match Engine.parse ~path src with
        | Ok file -> Some (path, file, Bwc_analysis.Suppress.scan src)
        | Error _ -> None)
      sources
  in
  let supp_of = Hashtbl.create 16 in
  List.iter (fun (p, _, s) -> Hashtbl.replace supp_of p s) parsed;
  let audited ~rule ~file ~line =
    match Hashtbl.find_opt supp_of file with
    | None -> None
    | Some supp -> (
        match Bwc_analysis.Suppress.find supp ~rule ~line with
        | Some e -> Some e.Bwc_analysis.Suppress.reason
        | None -> None)
  in
  let cg = Callgraph.build (List.map (fun (p, f, _) -> (p, f)) parsed) in
  let summaries = Taint.summaries ~audited cg in
  Format.fprintf ppf "effect summaries (%d tainted function%s):@."
    (List.length summaries)
    (if List.length summaries = 1 then "" else "s");
  List.iter
    (fun (s : Taint.summary) ->
      Format.fprintf ppf "  %s (%s)@." s.sum_def.Callgraph.name
        s.sum_def.Callgraph.def_file;
      List.iter
        (fun ((kind : Effects.kind), (e : Taint.entry)) ->
          let witness =
            List.map
              (fun id ->
                match Callgraph.find cg id with
                | Some d -> d.Callgraph.name
                | None -> id)
              e.Taint.e_path
          in
          Format.fprintf ppf "    %-36s %s (%s:%d) via %s@."
            (Effects.kind_label kind) e.Taint.e_src.Effects.s_detail
            e.Taint.e_src.Effects.s_file e.Taint.e_src.Effects.s_line
            (String.concat " -> " witness))
        s.Taint.sum_effects)
    summaries

let usage_error fmt =
  Format.kfprintf
    (fun _ ->
      Format.pp_print_flush Format.err_formatter ();
      Cmd.Exit.cli_error)
    Format.err_formatter
    ("bwclint: " ^^ fmt ^^ "@.")

let run paths json sarif taint no_wp list_rules quiet =
  if list_rules then begin
    Report.rule_catalog Format.std_formatter ();
    0
  end
  else
    match List.filter (fun p -> not (Sys.file_exists p)) paths with
    | p :: _ -> usage_error "no such file or directory: %s" p
    | [] ->
        let result = Engine.lint_paths ~whole_program:(not no_wp) paths in
        if taint then print_taint_table Format.std_formatter paths;
        if not quiet then begin
          Report.human Format.std_formatter result;
          Report.suppression_audit Format.std_formatter result
        end;
        write_report json (Report.json result);
        write_report sarif
          (Sarif.to_string ~suppressed:result.Engine.suppressed result.Engine.findings);
        if result.Engine.parse_failed then 2
        else if result.Engine.findings <> [] then 1
        else 0

let cmd =
  let doc =
    "static lint pass enforcing determinism, robustness and complexity \
     invariants"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Walks the Parsetree of every OCaml source under PATH..., runs the \
         per-file rule catalog, then builds the cross-module call graph and \
         runs the whole-program passes: interprocedural determinism taint \
         (hot-path functions transitively reaching nondeterminism sources, \
         with full witness paths) and the domain-safety audit (module-level \
         mutable state that blocks multicore sharding).  See \
         $(b,--list-rules).";
      `P
        "Findings are suppressed inline with \
         (* bwclint: allow <rule> -- <reason> *) on the offending line or \
         the line above.  The reason is required (its absence is itself \
         reported) and is surfaced by the JSON/SARIF reporters; stale \
         suppressions that match nothing in any pass are reported too.";
      `S Manpage.s_exit_status;
      `P "0 on a clean tree, 1 on findings, 2 on internal/parse errors, 124 \
          on usage errors.";
    ]
  in
  Cmd.v
    (Cmd.info "bwclint" ~version:"%%VERSION%%" ~doc ~man)
    Term.(
      const run $ paths_arg $ json_arg $ sarif_arg $ taint_arg $ no_wp_arg
      $ list_rules_arg $ quiet_arg)

let () = Stdlib.exit (Cmd.eval' cmd)
