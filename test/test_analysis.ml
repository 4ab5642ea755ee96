(* Tests for the bwclint engine: one failing fixture per rule, a clean
   fixture, suppression semantics, path scoping, the reporters, and the
   whole-program layer — call-graph resolution (cross-module, aliases,
   shadowing), interprocedural taint with witness paths, the
   domain-safety audit, and SARIF shape.

   Fixture sources are inline strings.  Suppression comments inside
   fixtures are assembled with [sup]/[sup_all] rather than written
   literally: Suppress.scan works on raw source text, so a literal
   marker inside these string constants would register a (stale)
   suppression against this very file when bwclint lints the test
   directory. *)

module Engine = Bwc_analysis.Engine
module Finding = Bwc_analysis.Finding
module Report = Bwc_analysis.Report
module Rules = Bwc_analysis.Rules
module Callgraph = Bwc_analysis.Callgraph
module Taint = Bwc_analysis.Taint
module Sarif = Bwc_analysis.Sarif

let sup ?(reason = "test audit") rule =
  Printf.sprintf "(* bwclint%s allow %s -- %s *)" ":" rule reason

let sup_bare rule = Printf.sprintf "(* bwclint%s allow %s *)" ":" rule
let sup_all () = sup "all"

(* default fixture path sits inside lib/core so every path-scoped rule
   (no-partial-stdlib, no-print-in-lib) is live *)
let lint ?(path = "lib/core/fixture.ml") src =
  Engine.lint_sources ~whole_program:false [ (path, src) ]

let rule_ids result =
  List.map (fun f -> f.Finding.rule) result.Engine.findings

let check_single_finding name ?path ~rule src =
  Alcotest.(check (list string))
    name [ rule ]
    (rule_ids (lint ?path src))

let contains sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ----- one failing fixture per rule ----- *)

let test_no_stdlib_random () =
  check_single_finding "Random.* flagged" ~rule:"no-stdlib-random"
    "let x = Random.int 5\n";
  check_single_finding "Stdlib.Random too" ~rule:"no-stdlib-random"
    "let x = Stdlib.Random.bool ()\n"

let test_no_unordered_hashtbl_iter () =
  check_single_finding "Hashtbl.iter flagged" ~rule:"no-unordered-hashtbl-iter"
    "let f t = Hashtbl.iter (fun _ _ -> ()) t\n";
  check_single_finding "Hashtbl.fold flagged" ~rule:"no-unordered-hashtbl-iter"
    "let f t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n"

let test_no_polymorphic_compare_on_floats () =
  check_single_finding "= with float literal" ~rule:"no-polymorphic-compare-on-floats"
    "let f x = x = 0.0\n";
  check_single_finding "compare with Float constant" ~rule:"no-polymorphic-compare-on-floats"
    "let f x = compare x Float.infinity\n"

let test_no_partial_stdlib () =
  check_single_finding "List.hd in lib/core" ~rule:"no-partial-stdlib"
    "let f l = List.hd l\n";
  check_single_finding "Option.get in lib/sim" ~path:"lib/sim/fixture.ml"
    ~rule:"no-partial-stdlib" "let f o = Option.get o\n"

let test_no_quadratic_append () =
  check_single_finding "acc @ [x]" ~rule:"no-quadratic-append"
    "let f acc x = acc @ [ x ]\n";
  check_single_finding "@ under let rec" ~rule:"no-quadratic-append"
    "let rec go acc l = match l with [] -> acc | x :: tl -> go (acc @ tl) tl\n"

let test_no_print_in_lib () =
  check_single_finding "print_endline in lib" ~rule:"no-print-in-lib"
    "let f () = print_endline \"hi\"\n";
  check_single_finding "exit in lib" ~rule:"no-print-in-lib"
    "let f () = exit 1\n"

let test_no_wall_clock_in_lib () =
  check_single_finding "Unix.gettimeofday in lib" ~rule:"no-wall-clock-in-lib"
    "let now () = Unix.gettimeofday ()\n";
  check_single_finding "Sys.time in lib" ~rule:"no-wall-clock-in-lib"
    "let cpu () = Sys.time ()\n";
  (* span.ml is the audited wall-clock reader *)
  Alcotest.(check (list string))
    "span.ml exempt" []
    (rule_ids
       (lint ~path:"lib/obs/span.ml" "let now () = Unix.gettimeofday ()\n"));
  (* wall time outside lib/ is fine *)
  Alcotest.(check (list string))
    "bench may time" []
    (rule_ids
       (lint ~path:"bench/fixture.ml" "let now () = Unix.gettimeofday ()\n"))

let test_no_blocking_io_in_daemon_core () =
  check_single_finding "Unix syscall in daemon core"
    ~path:"lib/daemon/reactor.ml" ~rule:"no-blocking-io-in-daemon-core"
    "let f fd buf = Unix.read fd buf 0 10\n";
  check_single_finding "In_channel in daemon core"
    ~path:"lib/daemon/lifecycle.ml" ~rule:"no-blocking-io-in-daemon-core"
    "let f path = In_channel.with_open_bin path (fun ic -> ic)\n";
  check_single_finding "channel primitive in daemon core"
    ~path:"lib/daemon/wire.ml" ~rule:"no-blocking-io-in-daemon-core"
    "let f ic = input_line ic\n";
  (* the transport shell owns the sockets: bin/ is exempt *)
  Alcotest.(check (list string))
    "bwclusterd transport may use Unix" []
    (rule_ids
       (lint ~path:"bin/bwclusterd.ml"
          "let f fd buf = Unix.read fd buf 0 10\n"));
  (* and other libraries are governed by their own rules, not this one *)
  Alcotest.(check (list string))
    "persist file IO untouched by the daemon rule" []
    (rule_ids
       (lint ~path:"lib/persist/fixture.ml"
          "let f path = In_channel.with_open_bin path In_channel.input_all\n"))

let test_naked_failwith () =
  check_single_finding "unprefixed failwith" ~rule:"naked-failwith"
    "let f () = failwith \"boom\"\n";
  Alcotest.(check (list string))
    "Module.fn prefix accepted" []
    (rule_ids (lint "let f () = failwith \"Fixture.f: boom\"\n"))

let test_no_obj_magic () =
  check_single_finding "Obj.magic flagged" ~rule:"no-obj-magic"
    "let f x = Obj.magic x\n"

let test_no_marshal () =
  check_single_finding "Marshal.to_string flagged" ~rule:"no-marshal"
    "let f x = Marshal.to_string x []\n";
  check_single_finding "Marshal.from_string flagged" ~rule:"no-marshal"
    "let f s = Marshal.from_string s 0\n";
  check_single_finding "Marshal.to_channel in persist itself" ~rule:"no-marshal"
    ~path:"lib/persist/fixture.ml"
    "let f oc x = Marshal.to_channel oc x []\n";
  (* the rule guards durable library state; bin/ writes nothing durable *)
  Alcotest.(check (list string))
    "Marshal fine outside lib/" []
    (rule_ids (lint ~path:"bin/fixture.ml" "let f x = Marshal.to_string x []\n"))

let test_no_unlabelled_send () =
  check_single_finding "Send without kind/bytes" ~rule:"no-unlabelled-send"
    "let f tr = emit tr (Trace.Send { round = 1; msg = 0; lc = 1; src = 0; \
     dst = 1 })\n";
  check_single_finding "Deliver missing bytes" ~rule:"no-unlabelled-send"
    ~path:"lib/sim/fixture.ml"
    "let f tr k = emit tr (Trace.Deliver { round = 1; msg = 0; kind = k; lc \
     = 1; src = 0; dst = 1 })\n";
  check_single_finding "event from a variable" ~rule:"no-unlabelled-send"
    "let f tr e = emit tr (Trace.Send e)\n";
  check_single_finding "qualified constructor too" ~rule:"no-unlabelled-send"
    "let f tr = emit tr (Bwc_obs.Trace.Send { round = 1; msg = 0; kind = k; \
     lc = 1; src = 0; dst = 1 })\n";
  Alcotest.(check (list string))
    "labelled send accepted" []
    (rule_ids
       (lint
          "let f tr k b = emit tr (Trace.Send { round = 1; msg = 0; kind = \
           k; bytes = b; lc = 1; src = 0; dst = 1 })\n"));
  (* pattern matches (trace consumers) are not construction sites *)
  Alcotest.(check (list string))
    "match on Send accepted" []
    (rule_ids
       (lint "let f = function Trace.Send { bytes; _ } -> bytes | _ -> 0\n"));
  Alcotest.(check (list string))
    "tests may build bare events" []
    (rule_ids
       (lint ~path:"test/fixture.ml"
          "let e = Trace.Send { round = 1; msg = 0; lc = 1; src = 0; dst = 1 }\n"))

(* ----- clean fixture ----- *)

let clean_src =
  "let eps = 1e-9\n\
   let close a b = Float.abs (a -. b) < eps\n\
   let first = function [] -> None | x :: _ -> Some x\n\
   let rec sum acc = function [] -> acc | x :: tl -> sum (acc + x) tl\n"

let test_clean () =
  let r = lint clean_src in
  Alcotest.(check (list string)) "no findings" [] (rule_ids r);
  Alcotest.(check int) "one file" 1 r.Engine.files_scanned;
  Alcotest.(check bool) "parsed" false r.Engine.parse_failed

(* ----- suppressions ----- *)

let test_suppression_same_line () =
  let src =
    "let f t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] "
    ^ sup "no-unordered-hashtbl-iter"
    ^ "\n"
  in
  let r = lint src in
  Alcotest.(check (list string)) "suppressed" [] (rule_ids r);
  Alcotest.(check int) "counted" 1 r.Engine.suppressions_used

let test_suppression_line_above () =
  let src =
    sup "no-partial-stdlib" ^ "\nlet f l = List.hd l\n"
  in
  Alcotest.(check (list string)) "suppressed" [] (rule_ids (lint src))

let test_suppression_exists_scan () =
  (* mirrors the audited detector.ml [pending] site: an order-independent
     exists-scan (commutative OR) over a Hashtbl, suppressed on the line
     above the indented iteration *)
  let src =
    "let pending t round =\n  let p = ref false in\n  "
    ^ sup "no-unordered-hashtbl-iter"
    ^ "\n\
      \  Hashtbl.iter (fun _ last -> if round - last > 3 then p := true) t;\n\
      \  !p\n"
  in
  let r = lint src in
  Alcotest.(check (list string)) "suppressed" [] (rule_ids r);
  Alcotest.(check int) "one audited site" 1 r.Engine.suppressions_used

let test_suppression_wrong_rule () =
  (* a suppression for a different rule must not mask the finding, and
     is itself reported as stale *)
  let src = "let f l = List.hd l " ^ sup "no-stdlib-random" ^ "\n" in
  Alcotest.(check (list string))
    "finding kept, stale suppression reported"
    [ "no-partial-stdlib"; "unused-suppression" ]
    (List.sort String.compare (rule_ids (lint src)))

let test_suppression_all () =
  let src = "let f l = List.hd (Obj.magic l) " ^ sup_all () ^ "\n" in
  Alcotest.(check (list string)) "allow all suppresses both" []
    (rule_ids (lint src))

let test_unused_suppression_reported () =
  let src = "let f x = x + 1 " ^ sup "no-stdlib-random" ^ "\n" in
  match (lint src).Engine.findings with
  | [ f ] ->
      Alcotest.(check string) "rule" Engine.unused_suppression_rule f.Finding.rule;
      Alcotest.(check int) "line" 1 f.Finding.line
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_suppression_reason_surfaced () =
  let src =
    "let f l = List.hd l "
    ^ sup ~reason:"nonempty by construction" "no-partial-stdlib"
    ^ "\n"
  in
  let r = lint src in
  Alcotest.(check (list string)) "no findings" [] (rule_ids r);
  match r.Engine.suppressed with
  | [ (f, reason) ] ->
      Alcotest.(check string) "silenced rule" "no-partial-stdlib" f.Finding.rule;
      Alcotest.(check string) "reason kept" "nonempty by construction" reason
  | l -> Alcotest.failf "expected one suppressed finding, got %d" (List.length l)

let test_suppression_missing_reason () =
  (* a used suppression without a reason is itself reported *)
  let src = "let f l = List.hd l " ^ sup_bare "no-partial-stdlib" ^ "\n" in
  Alcotest.(check (list string))
    "missing reason reported"
    [ Engine.missing_reason_rule ]
    (rule_ids (lint src))

(* ----- path scoping ----- *)

let test_rule_path_scoping () =
  (* partial accessors are only banned inside lib/core and lib/sim *)
  Alcotest.(check (list string))
    "List.hd fine outside protocol paths" []
    (rule_ids (lint ~path:"lib/experiments/fixture.ml" "let f l = List.hd l\n"));
  (* the seeded-rng module is the one place allowed to talk about Random *)
  Alcotest.(check (list string))
    "rng.ml exempt from no-stdlib-random" []
    (rule_ids (lint ~path:"lib/stats/rng.ml" "let x = Random.int 5\n"));
  (* print is only banned under lib/ *)
  Alcotest.(check (list string))
    "print fine in bin" []
    (rule_ids (lint ~path:"bin/fixture.ml" "let f () = print_endline \"x\"\n"))

let test_mli_parsing () =
  let r = lint ~path:"lib/core/fixture.mli" "val f : int -> int\n" in
  Alcotest.(check (list string)) "clean mli" [] (rule_ids r);
  Alcotest.(check bool) "parsed" false r.Engine.parse_failed

(* ----- parse failure ----- *)

let test_parse_error () =
  let r = lint "let let let\n" in
  Alcotest.(check bool) "parse_failed" true r.Engine.parse_failed;
  match r.Engine.findings with
  | [ f ] -> Alcotest.(check string) "rule" Engine.parse_error_rule f.Finding.rule
  | _ -> Alcotest.fail "expected exactly one parse-error finding"

(* ----- call graph ----- *)

let build_cg files =
  Callgraph.build
    (List.filter_map
       (fun (path, src) ->
         match Engine.parse ~path src with
         | Ok f -> Some (path, f)
         | Error _ -> None)
       files)

(* defs are keyed by directory and qualified name *)
let callee_names ?(dir = "lib/x") cg name =
  match Callgraph.find cg (dir ^ "//" ^ name) with
  | Some d ->
      List.filter_map
        (fun (c : Callgraph.call) ->
          Option.map
            (fun (d : Callgraph.def) -> d.Callgraph.name)
            (Callgraph.find cg c.Callgraph.callee))
        d.Callgraph.calls
  | None -> Alcotest.failf "no def %s in %s" name dir

let chain_files =
  [
    ("lib/x/tbl.ml", "let unsafe_iter t f = Hashtbl.iter f t\n");
    ( "lib/x/protocol.ml",
      "let resend_pending t = Tbl.unsafe_iter t (fun _ _ -> ())\n" );
    ("lib/x/engine.ml", "let run_round t = Protocol.resend_pending t\n");
  ]

let test_callgraph_cross_module () =
  let cg = build_cg chain_files in
  Alcotest.(check (list string))
    "engine -> protocol"
    [ "Protocol.resend_pending" ]
    (callee_names cg "Engine.run_round");
  Alcotest.(check (list string))
    "protocol -> tbl" [ "Tbl.unsafe_iter" ]
    (callee_names cg "Protocol.resend_pending")

let test_callgraph_alias () =
  let cg =
    build_cg
      [
        ("lib/x/protocol.ml", "let send t = ignore t\n");
        ( "lib/x/engine.ml",
          "module P = Protocol\nlet go t = P.send t\n" );
      ]
  in
  Alcotest.(check (list string))
    "alias expanded" [ "Protocol.send" ]
    (callee_names cg "Engine.go")

let test_callgraph_shadowing () =
  let cg =
    build_cg
      [
        ( "lib/x/engine.ml",
          "let helper x = x + 1\n\
           let f helper = helper 3\n\
           let g x = helper x\n" );
      ]
  in
  Alcotest.(check (list string))
    "param shadows unit fn" [] (callee_names cg "Engine.f");
  Alcotest.(check (list string))
    "unshadowed ref resolves" [ "Engine.helper" ]
    (callee_names cg "Engine.g")

let test_callgraph_wrapped_library () =
  let cg =
    build_cg
      [
        ("lib/stats/tbl.ml", "let iter_sorted t f = ignore (t, f)\n");
        ( "lib/sim/engine.ml",
          "let run t = Bwc_stats.Tbl.iter_sorted t (fun _ -> ())\n" );
      ]
  in
  Alcotest.(check (list string))
    "bwc_<lib> prefix maps to lib/<dir>"
    [ "Tbl.iter_sorted" ]
    (callee_names ~dir:"lib/sim" cg "Engine.run")

let test_callgraph_same_name_units_isolated () =
  (* two engine.ml units in different directories must not alias *)
  let cg =
    build_cg
      [
        ("lib/x/helper.ml", "let go () = ()\n");
        ("lib/x/engine.ml", "let run () = Helper.go ()\n");
        ("lib/y/engine.ml", "let run () = ()\n");
      ]
  in
  match (Callgraph.find cg "lib/x//Engine.run", Callgraph.find cg "lib/y//Engine.run") with
  | Some a, Some b ->
      Alcotest.(check bool)
        "distinct dirs" true
        (a.Callgraph.unit_dir <> b.Callgraph.unit_dir)
  | _ -> Alcotest.fail "expected an Engine.run def in lib/x and in lib/y"

(* ----- dead exports ----- *)

let export_findings files =
  List.filter_map
    (fun (f : Finding.t) ->
      if f.Finding.rule = "dead-export" || f.Finding.rule = "test-only-export" then
        Some (f.Finding.rule ^ " " ^ f.Finding.message)
      else None)
    (Engine.lint_sources files).Engine.findings

let util_files =
  [
    ( "lib/x/util.mli",
      "val used : int -> int\nval unused : int -> int\nval internal : int -> int\n\
       val for_tests : int -> int\nmodule Sub : sig\n  val deep : int\nend\n" );
    ( "lib/x/util.ml",
      "let used x = x\nlet unused x = x\nlet internal x = x + 1\n\
       let for_tests x = internal x\nmodule Sub = struct let deep = 3 end\n" );
    ("bin/main.ml", "let () = print_int (Util.used 1)\n");
    ("test/check.ml", "let () = assert (Util.for_tests 1 = 2)\n");
  ]

let test_dead_export_rules () =
  Alcotest.(check (list string))
    "findings"
    [
      "dead-export Util.unused is exported but unused: delete it";
      "dead-export Util.internal is exported but used only inside its unit: drop it \
       from the .mli";
      "test-only-export Util.for_tests is exported but only test/ references it \
       (test/check.ml)";
      "dead-export Util.Sub.deep is exported but unused: delete it";
    ]
    (export_findings util_files)

let test_dead_export_reference_kinds () =
  (* a reference is any resolved identifier: partial applications
     through an alias, functions passed as arguments, [let () =] bodies
     under a local open, let-module aliases and nested module paths *)
  let files =
    [
      ( "lib/y/m.mli",
        "val a : int -> int -> int\nval b : int -> int\nval c : int\nval d : int\n\
         module N : sig\n  val e : int\nend\n" );
      ( "lib/y/m.ml",
        "let a x y = x + y\nlet b x = x\nlet c = 1\nlet d = 2\n\
         module N = struct let e = 5 end\n" );
      ( "bin/use.ml",
        "module P = M\nlet f = P.a 1\nlet g = List.map M.b\n\
         let () = print_int (let open M in c)\nlet h = let module Q = M in Q.d\nlet i = M.N.e\n" );
    ]
  in
  Alcotest.(check (list string)) "every export referenced" [] (export_findings files)

let test_dead_export_unresolved_hides () =
  (* a path through an unpacked first-class module resolves to nothing:
     it counts as a use of every export with that name *)
  let files =
    [
      ("lib/z/k.mli", "val probe : int\n");
      ("lib/z/k.ml", "let probe = 1\n");
      ( "bin/use.ml",
        "module type S = sig val probe : int end\nlet f (module X : S) = X.probe\n" );
    ]
  in
  Alcotest.(check (list string)) "miss hides, never invents" [] (export_findings files)

let test_dead_export_allow () =
  let files =
    List.map
      (fun (path, src) ->
        if path = "lib/x/util.mli" then
          ( path,
            "val used : int -> int\nval unused : int -> int\nval internal : int -> int\n"
            ^ sup ~reason:"test/check.ml compares against it" "test-only-export"
            ^ "\nval for_tests : int -> int\nmodule Sub : sig\n  val deep : int\nend\n" )
        else (path, src))
      util_files
  in
  let r = Engine.lint_sources files in
  Alcotest.(check bool) "allowed export suppressed" false
    (List.exists
       (fun (f : Finding.t) -> f.Finding.rule = "test-only-export")
       r.Engine.findings);
  Alcotest.(check (list string)) "audit trail names the caller"
    [ "test/check.ml compares against it" ]
    (List.map snd r.Engine.suppressed)

(* ----- whole-program taint ----- *)

let taint_findings r =
  List.filter
    (fun f -> f.Finding.rule = Taint.determinism_rule)
    r.Engine.findings

let test_taint_three_hop_witness () =
  let r = Engine.lint_sources chain_files in
  (* Engine and Protocol are both hot units, so the same source is
     reported once per reaching unit *)
  match
    List.filter (fun f -> f.Finding.file = "lib/x/engine.ml") (taint_findings r)
  with
  | [ f ] ->
      Alcotest.(check (list string))
        "witness path"
        [ "Engine.run_round"; "Protocol.resend_pending"; "Tbl.unsafe_iter" ]
        f.Finding.witness;
      Alcotest.(check bool) "symbolic key" true
        (contains "Engine.run_round" (Finding.stable_key f));
      Alcotest.(check bool) "message names the source" true
        (contains "Hashtbl.iter" f.Finding.message)
  | fs ->
      Alcotest.failf "expected one Engine-rooted taint finding, got %d"
        (List.length fs)

let test_taint_interprocedural_only_suppression_not_stale () =
  (* satellite regression: bench/ is outside no-wall-clock-in-lib's
     only-paths, so the suppression below is justified purely by the
     interprocedural pass; it must cut the taint AND not be stale *)
  let files =
    [
      ( "bench/helper.ml",
        sup ~reason:"bench timing harness" "no-wall-clock-in-lib"
        ^ "\nlet now () = Unix.gettimeofday ()\n" );
      ("lib/x/engine.ml", "let run () = Helper.now ()\n");
    ]
  in
  let r = Engine.lint_sources files in
  Alcotest.(check (list string)) "taint cut, nothing stale" [] (rule_ids r)

let test_taint_root_suppression () =
  (* suppressing the hot-path anchor silences the finding but keeps the
     audit trail *)
  let files =
    [
      ("bench/helper.ml", "let now () = Unix.gettimeofday ()\n");
      ( "lib/x/engine.ml",
        sup ~reason:"latency probe, not protocol state" "determinism-taint"
        ^ "\nlet run () = Helper.now ()\n" );
    ]
  in
  let r = Engine.lint_sources files in
  Alcotest.(check (list string)) "no findings" [] (rule_ids r);
  match
    List.filter
      (fun (f, _) -> f.Finding.rule = Taint.determinism_rule)
      r.Engine.suppressed
  with
  | [ (_, reason) ] ->
      Alcotest.(check string) "reason" "latency probe, not protocol state"
        reason
  | l -> Alcotest.failf "expected one audited taint, got %d" (List.length l)

let test_taint_unsuppressed_without_comment () =
  let files =
    [
      ("bench/helper.ml", "let now () = Unix.gettimeofday ()\n");
      ("lib/x/engine.ml", "let run () = Helper.now ()\n");
    ]
  in
  let r = Engine.lint_sources files in
  Alcotest.(check (list string))
    "taint reported" [ Taint.determinism_rule ] (rule_ids r)

let test_taint_cold_module_not_root () =
  (* the same chain rooted in a non-hot unit reports nothing *)
  let files =
    [
      ("bench/helper.ml", "let now () = Unix.gettimeofday ()\n");
      ("lib/x/planner.ml", "let run () = Helper.now ()\n");
    ]
  in
  let r = Engine.lint_sources files in
  Alcotest.(check (list string)) "cold root, no taint" [] (rule_ids r)

(* ----- domain-safety audit ----- *)

let test_domain_unsafe_global () =
  let r =
    Engine.lint_sources
      [ ("lib/x/state.ml", "let cache = Hashtbl.create 16\n") ]
  in
  match r.Engine.findings with
  | [ f ] ->
      Alcotest.(check string) "rule" Taint.global_rule f.Finding.rule;
      Alcotest.(check string) "key is def name" "State.cache"
        (Finding.stable_key f)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_domain_unsafe_capture () =
  let r =
    Engine.lint_sources
      [
        ( "lib/x/memo.ml",
          "let lookup = let t = Hashtbl.create 16 in fun x -> Hashtbl.mem t x\n"
        );
      ]
  in
  Alcotest.(check (list string))
    "capture flagged" [ Taint.capture_rule ] (rule_ids r)

let test_domain_safe_shapes () =
  (* constants, functions and constructor-wrapped creation are fine *)
  let r =
    Engine.lint_sources
      [
        ( "lib/x/state.ml",
          "let size = 16\n\
           let create () = Hashtbl.create 16\n\
           let names = [ \"a\"; \"b\" ]\n" );
      ]
  in
  Alcotest.(check (list string)) "no findings" [] (rule_ids r)

(* ----- SARIF ----- *)

let test_sarif_shape () =
  let r = Engine.lint_sources chain_files in
  let doc = Sarif.to_string ~suppressed:r.Engine.suppressed r.Engine.findings in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" sub) true
        (contains sub doc))
    [
      "\"$schema\"";
      "\"version\": \"2.1.0\"";
      "\"name\": \"bwclint\"";
      "\"ruleId\": \"determinism-taint\"";
      "\"codeFlows\"";
      "Protocol.resend_pending";
      "\"startLine\"";
    ]

let test_sarif_suppression_justification () =
  let files =
    [
      ("bench/helper.ml", "let now () = Unix.gettimeofday ()\n");
      ( "lib/x/engine.ml",
        sup ~reason:"latency probe" "determinism-taint"
        ^ "\nlet run () = Helper.now ()\n" );
    ]
  in
  let r = Engine.lint_sources files in
  let doc = Sarif.to_string ~suppressed:r.Engine.suppressed r.Engine.findings in
  Alcotest.(check bool) "inSource suppression" true
    (contains "\"kind\": \"inSource\"" doc);
  Alcotest.(check bool) "justification" true (contains "latency probe" doc)

(* ----- discovery ----- *)

let test_discover_skips_fixture_dirs () =
  (* recursive discovery must skip fixtures/ (dirty corpora), while
     passing the path explicitly still lints it *)
  let root = Filename.temp_file "bwclint_disc" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  let fixtures = Filename.concat root "fixtures" in
  Sys.mkdir fixtures 0o755;
  let write p = Out_channel.with_open_text p (fun oc ->
      Out_channel.output_string oc "let x = 1\n")
  in
  let good = Filename.concat root "good.ml" in
  let bad = Filename.concat fixtures "bad.ml" in
  write good;
  write bad;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove good;
      Sys.remove bad;
      Sys.rmdir fixtures;
      Sys.rmdir root)
    (fun () ->
      Alcotest.(check (list string))
        "fixtures skipped on recursion" [ good ]
        (Engine.discover [ root ]);
      Alcotest.(check (list string))
        "explicit fixture path lints" [ bad ]
        (Engine.discover [ fixtures ]))

(* ----- reporters ----- *)

let test_json_report () =
  let r = lint "let x = Random.int 5\n" in
  let out = Report.json r in
  let has sub = contains sub out in
  Alcotest.(check bool) "rule field" true (has "\"rule\": \"no-stdlib-random\"");
  Alcotest.(check bool) "severity field" true (has "\"severity\": \"error\"");
  Alcotest.(check bool) "file field" true (has "\"file\": \"lib/core/fixture.ml\"");
  Alcotest.(check bool) "errors count" true (has "\"errors\": 1")

let test_json_witness_and_suppressed () =
  let r = Engine.lint_sources chain_files in
  let out = Report.json r in
  Alcotest.(check bool) "witness array" true (contains "\"witness\": [" out);
  Alcotest.(check bool) "suppressed array" true (contains "\"suppressed\"" out)

let test_human_report () =
  let r = lint "let f acc x = acc @ [ x ]\n" in
  let out = Format.asprintf "%a" Report.human r in
  let has sub = contains sub out in
  Alcotest.(check bool) "location prefix" true (has "lib/core/fixture.ml:1:");
  Alcotest.(check bool) "summary line" true (has "1 file scanned: 0 errors, 1 warning")

let test_human_witness_line () =
  let r = Engine.lint_sources chain_files in
  let out = Format.asprintf "%a" Report.human r in
  Alcotest.(check bool) "witness continuation" true
    (contains
       "witness: Engine.run_round -> Protocol.resend_pending -> \
        Tbl.unsafe_iter"
       out)

let test_rule_catalog_complete () =
  (* every syntactic rule the acceptance criteria names exists in the
     registry, and the catalog output names the whole-program rules *)
  List.iter
    (fun id ->
      match Rules.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "rule %s missing from catalog" id)
    [
      "no-stdlib-random";
      "no-unordered-hashtbl-iter";
      "no-polymorphic-compare-on-floats";
      "no-partial-stdlib";
      "no-quadratic-append";
      "no-print-in-lib";
      "no-wall-clock-in-lib";
      "no-blocking-io-in-daemon-core";
      "naked-failwith";
      "no-obj-magic";
      "no-marshal";
      "no-unlabelled-send";
    ];
  let out = Format.asprintf "%a" Report.rule_catalog () in
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "catalog lists %s" id) true
        (contains id out))
    [
      Taint.determinism_rule;
      Taint.global_rule;
      Taint.capture_rule;
      Engine.missing_reason_rule;
      Engine.unused_suppression_rule;
    ]

let () =
  Alcotest.run "bwc_analysis"
    [
      ( "rules",
        [
          Alcotest.test_case "no-stdlib-random" `Quick test_no_stdlib_random;
          Alcotest.test_case "no-unordered-hashtbl-iter" `Quick
            test_no_unordered_hashtbl_iter;
          Alcotest.test_case "no-polymorphic-compare-on-floats" `Quick
            test_no_polymorphic_compare_on_floats;
          Alcotest.test_case "no-partial-stdlib" `Quick test_no_partial_stdlib;
          Alcotest.test_case "no-quadratic-append" `Quick test_no_quadratic_append;
          Alcotest.test_case "no-print-in-lib" `Quick test_no_print_in_lib;
          Alcotest.test_case "no-wall-clock-in-lib" `Quick test_no_wall_clock_in_lib;
          Alcotest.test_case "no-blocking-io-in-daemon-core" `Quick
            test_no_blocking_io_in_daemon_core;
          Alcotest.test_case "naked-failwith" `Quick test_naked_failwith;
          Alcotest.test_case "no-obj-magic" `Quick test_no_obj_magic;
          Alcotest.test_case "no-marshal" `Quick test_no_marshal;
          Alcotest.test_case "no-unlabelled-send" `Quick test_no_unlabelled_send;
          Alcotest.test_case "clean fixture" `Quick test_clean;
          Alcotest.test_case "catalog complete" `Quick test_rule_catalog_complete;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "same line" `Quick test_suppression_same_line;
          Alcotest.test_case "line above" `Quick test_suppression_line_above;
          Alcotest.test_case "exists-scan site" `Quick
            test_suppression_exists_scan;
          Alcotest.test_case "wrong rule kept" `Quick test_suppression_wrong_rule;
          Alcotest.test_case "allow all" `Quick test_suppression_all;
          Alcotest.test_case "stale reported" `Quick test_unused_suppression_reported;
          Alcotest.test_case "reason surfaced" `Quick
            test_suppression_reason_surfaced;
          Alcotest.test_case "missing reason reported" `Quick
            test_suppression_missing_reason;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "cross-module chain" `Quick
            test_callgraph_cross_module;
          Alcotest.test_case "module alias" `Quick test_callgraph_alias;
          Alcotest.test_case "shadowing" `Quick test_callgraph_shadowing;
          Alcotest.test_case "wrapped library" `Quick
            test_callgraph_wrapped_library;
          Alcotest.test_case "same-name units isolated" `Quick
            test_callgraph_same_name_units_isolated;
        ] );
      ( "exports",
        [
          Alcotest.test_case "dead and test-only" `Quick test_dead_export_rules;
          Alcotest.test_case "reference kinds" `Quick test_dead_export_reference_kinds;
          Alcotest.test_case "unresolved hides" `Quick test_dead_export_unresolved_hides;
          Alcotest.test_case "allow names its caller" `Quick test_dead_export_allow;
        ] );
      ( "taint",
        [
          Alcotest.test_case "three-hop witness" `Quick
            test_taint_three_hop_witness;
          Alcotest.test_case "interprocedural-only suppression not stale"
            `Quick test_taint_interprocedural_only_suppression_not_stale;
          Alcotest.test_case "root suppression audited" `Quick
            test_taint_root_suppression;
          Alcotest.test_case "unsuppressed chain reported" `Quick
            test_taint_unsuppressed_without_comment;
          Alcotest.test_case "cold module not a root" `Quick
            test_taint_cold_module_not_root;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "global mutable flagged" `Quick
            test_domain_unsafe_global;
          Alcotest.test_case "capture flagged" `Quick test_domain_unsafe_capture;
          Alcotest.test_case "safe shapes clean" `Quick test_domain_safe_shapes;
        ] );
      ( "sarif",
        [
          Alcotest.test_case "document shape" `Quick test_sarif_shape;
          Alcotest.test_case "suppression justification" `Quick
            test_sarif_suppression_justification;
        ] );
      ( "engine",
        [
          Alcotest.test_case "path scoping" `Quick test_rule_path_scoping;
          Alcotest.test_case "mli parsing" `Quick test_mli_parsing;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "discovery skips fixtures" `Quick
            test_discover_skips_fixture_dirs;
        ] );
      ( "reporters",
        [
          Alcotest.test_case "json" `Quick test_json_report;
          Alcotest.test_case "json witness+suppressed" `Quick
            test_json_witness_and_suppressed;
          Alcotest.test_case "human" `Quick test_human_report;
          Alcotest.test_case "human witness line" `Quick test_human_witness_line;
        ] );
    ]
