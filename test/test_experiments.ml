(* Tests for bwc_experiments: workload generation, the report renderer,
   and small runs of every experiment driver asserting the paper's
   qualitative shapes (who wins, monotonicity, orderings). *)

module Rng = Bwc_stats.Rng
module Workload = Bwc_experiments.Workload

let small_dataset ~seed n =
  Bwc_dataset.Planetlab.generate ~rng:(Rng.create seed) ~name:"exp-ds"
    { Bwc_dataset.Planetlab.hp_target with n }

(* ----- Workload ----- *)

let test_workload_fixed_k () =
  let ds = small_dataset ~seed:1 30 in
  let range = Workload.bandwidth_range ds in
  let lo, hi = range in
  let qs = Workload.fixed_k ~rng:(Rng.create 2) ~range ~n:30 ~k:5 ~count:200 in
  Alcotest.(check int) "count" 200 (List.length qs);
  List.iter
    (fun (q : Workload.query) ->
      Alcotest.(check int) "k" 5 q.Workload.k;
      if q.Workload.b < lo || q.Workload.b >= hi then Alcotest.fail "b out of range";
      if q.Workload.at < 0 || q.Workload.at >= 30 then Alcotest.fail "at out of range")
    qs

let test_workload_swept_k () =
  let ds = small_dataset ~seed:3 20 in
  let range = Workload.bandwidth_range ds in
  let qs = Workload.swept_k ~rng:(Rng.create 4) ~range ~n:20 ~ks:[ 2; 5; 9 ] ~per_k:7 in
  Alcotest.(check int) "count" 21 (List.length qs);
  let count k = List.length (List.filter (fun q -> q.Workload.k = k) qs) in
  Alcotest.(check int) "per k" 7 (count 5)

let test_workload_k_fractions () =
  let ks = Workload.k_fraction_range ~n:100 ~lo:0.05 ~hi:0.30 ~steps:6 in
  Alcotest.(check (list int)) "values" [ 5; 10; 15; 20; 25; 30 ] ks;
  let tiny = Workload.k_fraction_range ~n:10 ~lo:0.01 ~hi:0.02 ~steps:3 in
  List.iter (fun k -> if k < 2 then Alcotest.fail "k must be >= 2") tiny

let test_bandwidth_range_percentiles () =
  let ds = small_dataset ~seed:5 40 in
  let lo, hi = Workload.bandwidth_range ds in
  let lo', hi' = Bwc_dataset.Dataset.percentile_range ds ~lo:20.0 ~hi:80.0 in
  Alcotest.(check (float 1e-9)) "lo" lo' lo;
  Alcotest.(check (float 1e-9)) "hi" hi' hi

(* ----- Report ----- *)

let test_report_renders () =
  let buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer buf in
  Bwc_experiments.Report.table ~out ~title:"t" ~headers:[ "a"; "b" ]
    [ [ "1"; "2" ]; [ "30"; "40" ] ];
  Format.pp_print_flush out ();
  let s = Buffer.contents buf in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "has title" true (contains "t\n");
  Alcotest.(check bool) "has cells" true (contains "30" && contains "40");
  (* ragged rows are rejected *)
  Alcotest.(check bool) "ragged rejected" true
    (try
       Bwc_experiments.Report.table ~out ~title:"t" ~headers:[ "a" ] [ [ "1"; "2" ] ];
       false
     with Invalid_argument _ -> true)

(* one column list renders both outputs: the CSV-only column appears in
   the CSV alone, the override changes the CSV cell alone, and cells
   with commas or quotes are quoted in the CSV *)
let test_report_columns () =
  let open Bwc_experiments.Report in
  let columns =
    [
      col "name" "name" fst;
      csv_only "note" (fun (n, _) -> if n = "b" then "x,\"y\"" else "");
      col
        ~csv:(fun (_, v) -> Printf.sprintf "%.2f" v)
        "value" "value_exact"
        (fun (_, v) -> f3 v);
    ]
  in
  let rows = [ ("a", 0.5); ("bb", 12.25); ("b", 1.0) ] in
  let buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer buf in
  print ~out ~title:"title" columns rows;
  Format.pp_print_flush out ();
  Alcotest.(check string) "text"
    "\ntitle\n------------\nname   value\n   a   0.500\n  bb  12.250\n   b   1.000\n"
    (Buffer.contents buf);
  let path = Filename.temp_file "bwc" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      save_csv columns rows path;
      Alcotest.(check string) "csv"
        "name,note,value_exact\na,,0.50\nbb,,12.25\nb,\"x,\"\"y\"\"\",1.00\n"
        (In_channel.with_open_text path In_channel.input_all))

(* ----- Experiment shapes ----- *)

let test_accuracy_shapes () =
  let ds = small_dataset ~seed:6 100 in
  let out = Bwc_experiments.Accuracy.run ~rounds:2 ~queries_per_round:200 ~seed:7 ds in
  Alcotest.(check bool) "has rows" true (List.length out.Bwc_experiments.Accuracy.rows >= 4);
  (* easy workload: everything returns *)
  Alcotest.(check bool) "tree central returns" true
    (out.Bwc_experiments.Accuracy.rr_tree_central > 0.95);
  Alcotest.(check bool) "decentral returns" true
    (out.Bwc_experiments.Accuracy.rr_tree_decentral > 0.9);
  (* WPR at the lowest constraint should not exceed the highest one by much:
     the paper's curves rise with b *)
  (match (List.hd out.rows, List.nth out.rows (List.length out.rows - 1)) with
  | first, last ->
      Alcotest.(check bool) "WPR rises for decentral" true
        (first.Bwc_experiments.Accuracy.wpr_tree_decentral
        <= last.Bwc_experiments.Accuracy.wpr_tree_decentral +. 0.05));
  (* pooled over the top third of constraints, the tree approaches do not
     lose to the euclidean model by a meaningful margin (at paper scale
     they win decisively; small runs carry sampling noise) *)
  let top = List.filteri (fun i _ -> i >= 2 * List.length out.rows / 3) out.rows in
  let avg f = List.fold_left (fun a r -> a +. f r) 0.0 top /. float_of_int (List.length top) in
  let tree = avg (fun r -> r.Bwc_experiments.Accuracy.wpr_tree_decentral) in
  let eucl = avg (fun r -> r.Bwc_experiments.Accuracy.wpr_eucl_central) in
  Alcotest.(check bool)
    (Printf.sprintf "tree (%.3f) <= eucl (%.3f) at high b" tree eucl)
    true (tree <= eucl +. 0.05)

let test_relerr_tree_beats_eucl () =
  let ds = small_dataset ~seed:8 70 in
  let out = Bwc_experiments.Relerr.run ~rounds:2 ~seed:9 ds in
  Alcotest.(check bool) "median gap positive" true
    (Bwc_experiments.Relerr.median_gap out > 0.0);
  (* the tree CDF dominates at several quantiles *)
  List.iter
    (fun p ->
      let t = Bwc_stats.Cdf.quantile out.Bwc_experiments.Relerr.tree p in
      let e = Bwc_stats.Cdf.quantile out.Bwc_experiments.Relerr.eucl p in
      if t > e +. 0.05 then Alcotest.failf "tree worse at p=%.2f (%.3f vs %.3f)" p t e)
    [ 0.5; 0.8; 0.9 ]

let test_tradeoff_shapes () =
  let ds = small_dataset ~seed:10 60 in
  let out = Bwc_experiments.Tradeoff.run ~rounds:2 ~per_k:4 ~seed:11 ds in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "decentral <= central at k=%d" r.Bwc_experiments.Tradeoff.k)
        true
        (r.Bwc_experiments.Tradeoff.rr_decentral
        <= r.Bwc_experiments.Tradeoff.rr_central +. 1e-9))
    out.Bwc_experiments.Tradeoff.rows;
  (* small k must be easy *)
  (match out.rows with
  | first :: _ -> Alcotest.(check (float 1e-9)) "k=2 trivially returns" 1.0
      first.Bwc_experiments.Tradeoff.rr_central
  | [] -> Alcotest.fail "rows expected")

let test_ncut_ablation_monotone () =
  let ds = small_dataset ~seed:12 50 in
  let rows =
    Bwc_experiments.Tradeoff.ncut_ablation ~rounds:1 ~per_k:3 ~n_cuts:[ 2; 10 ] ~seed:13 ds
  in
  match rows with
  | [ small; large ] ->
      Alcotest.(check bool) "bigger n_cut, better RR" true
        (small.Bwc_experiments.Tradeoff.a_rr
        <= large.Bwc_experiments.Tradeoff.a_rr +. 0.02)
  | _ -> Alcotest.fail "two rows expected"

let test_treeness_shapes () =
  let out =
    Bwc_experiments.Treeness.run ~n:60 ~sigmas:[ 0.05; 0.6 ] ~rounds:1
      ~queries_per_round:150 ~seed:14 ()
  in
  match out.Bwc_experiments.Treeness.curves with
  | [ good; bad ] ->
      Alcotest.(check bool) "epsilon ordering" true
        (good.Bwc_experiments.Treeness.epsilon_avg
        < bad.Bwc_experiments.Treeness.epsilon_avg);
      let pooled_wpr (c : Bwc_experiments.Treeness.curve) =
        let num, den =
          List.fold_left
            (fun (n, d) (b : Bwc_experiments.Treeness.bin) ->
              (n +. (b.Bwc_experiments.Treeness.wpr *. float_of_int b.queries),
               d + b.queries))
            (0.0, 0) c.Bwc_experiments.Treeness.bins
        in
        if den = 0 then 0.0 else num /. float_of_int den
      in
      Alcotest.(check bool) "worse treeness, worse WPR" true
        (pooled_wpr good < pooled_wpr bad +. 1e-9)
  | _ -> Alcotest.fail "two curves expected"

let test_scalability_shapes () =
  let base = small_dataset ~seed:15 90 in
  let out =
    Bwc_experiments.Scalability.run ~sizes:[ 30; 60; 90 ] ~subsets_per_size:1
      ~queries_per_subset:40 ~rounds:1 ~seed:16 base
  in
  Alcotest.(check int) "rows" 3 (List.length out.Bwc_experiments.Scalability.rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "hops small" true (r.Bwc_experiments.Scalability.avg_hops < 8.0);
      Alcotest.(check bool) "some queries return" true (r.Bwc_experiments.Scalability.rr > 0.3))
    out.rows

let test_embedding_ablation_shapes () =
  let ds = small_dataset ~seed:17 50 in
  let rows = Bwc_experiments.Embedding.run ~rounds:1 ~sizes:[ 1; 3 ] ~seed:18 ds in
  (* find the single-tree default and the 3-ensemble rows *)
  let find label = List.find (fun r -> r.Bwc_experiments.Embedding.label = label) rows in
  let single = find "random+anchor" and triple = find "random+anchor x3" in
  Alcotest.(check bool) "ensemble cuts the false-close tail" true
    (triple.Bwc_experiments.Embedding.over2x
    <= single.Bwc_experiments.Embedding.over2x +. 1e-9);
  List.iter
    (fun r ->
      Alcotest.(check bool) "measurement accounting sane" true
        (r.Bwc_experiments.Embedding.measurements > 0))
    rows

let test_oracle_shapes () =
  let ds = small_dataset ~seed:19 60 in
  let clean = Bwc_experiments.Oracle.run ~ks:[ 3; 6 ] ~queries_per_k:20 ~seed:20 ds in
  let noisy_ds =
    Bwc_dataset.Noise.multiplicative ~rng:(Rng.create 21) ~sigma:0.4 ds
  in
  let noisy = Bwc_experiments.Oracle.run ~ks:[ 3; 6 ] ~queries_per_k:20 ~seed:20 noisy_ds in
  let invalids out =
    List.fold_left (fun a r -> a + r.Bwc_experiments.Oracle.invalid) 0
      out.Bwc_experiments.Oracle.rows
  in
  Alcotest.(check bool) "epsilon ordering" true
    (clean.Bwc_experiments.Oracle.epsilon_avg < noisy.Bwc_experiments.Oracle.epsilon_avg);
  Alcotest.(check bool) "tree assumption degrades with noise" true
    (invalids clean <= invalids noisy);
  (* counters are internally consistent *)
  List.iter
    (fun r ->
      let open Bwc_experiments.Oracle in
      Alcotest.(check bool) "found bounded" true (r.alg1_found <= r.queries);
      Alcotest.(check bool) "invalid bounded" true (r.invalid <= r.alg1_found);
      Alcotest.(check bool) "missed bounded" true (r.missed <= r.oracle_feasible))
    (clean.Bwc_experiments.Oracle.rows @ noisy.Bwc_experiments.Oracle.rows)

let test_overhead_shapes () =
  let base = small_dataset ~seed:22 80 in
  let out = Bwc_experiments.Overhead.run ~sizes:[ 30; 60 ] ~repeats:1 ~seed:23 base in
  match out.Bwc_experiments.Overhead.rows with
  | [ small; large ] ->
      let open Bwc_experiments.Overhead in
      Alcotest.(check bool) "messages grow with n" true
        (small.messages_total < large.messages_total);
      (* the scalability claim: per-host message cost grows sublinearly
         (here: far less than the 2x of total size) *)
      Alcotest.(check bool) "per-host cost nearly flat" true
        (large.messages_per_host < 2.0 *. small.messages_per_host);
      Alcotest.(check bool) "quiescence reached" true
        (large.rounds_to_quiescence < 4 * 60)
  | _ -> Alcotest.fail "two rows expected"

let test_routing_shapes () =
  let ds = small_dataset ~seed:24 60 in
  let out = Bwc_experiments.Routing.run ~rounds:1 ~queries_per_k:30 ~seed:25 ds in
  List.iter
    (fun r ->
      let open Bwc_experiments.Routing in
      (* on converged tables both policies answer the same queries *)
      Alcotest.(check (float 1e-9)) "same RR" r.rr_best r.rr_first;
      Alcotest.(check bool) "hops sane" true (r.hops_best >= 0.0 && r.hops_first >= 0.0))
    out.Bwc_experiments.Routing.rows

let test_robustness_shapes () =
  let ds = small_dataset ~seed:28 40 in
  let out =
    Bwc_experiments.Robustness.run ~drops:[ 0.0; 0.2 ] ~crash_rates:[ 0.0; 0.15 ]
      ~queries:30 ~seed:29 ds
  in
  Alcotest.(check int) "rows" 4 (List.length out.Bwc_experiments.Robustness.rows);
  List.iter
    (fun r ->
      let open Bwc_experiments.Robustness in
      (* the acceptance property: every configuration converges to the
         identical fixed point as the fault-free run *)
      Alcotest.(check bool)
        (Printf.sprintf "converged at drop=%.1f crash=%.2f" r.drop r.crash_rate)
        true r.converged;
      Alcotest.(check bool)
        (Printf.sprintf "fixpoint match at drop=%.1f crash=%.2f" r.drop r.crash_rate)
        true r.fixpoint_match;
      Alcotest.(check bool) "reliability costs rounds" true (r.round_overhead >= 1.0);
      Alcotest.(check bool) "reliability costs messages" true
        (r.message_overhead >= 1.0);
      if r.drop > 0.0 then begin
        Alcotest.(check bool) "losses injected" true (r.lost > 0);
        Alcotest.(check bool) "losses recovered by retries" true (r.retries > 0)
      end)
    out.Bwc_experiments.Robustness.rows

let test_recovery_shapes () =
  let ds = small_dataset ~seed:30 32 in
  let out =
    Bwc_experiments.Robustness.recovery ~victim_counts:[ 1; 2 ] ~queries:30
      ~seed:31 ds
  in
  Alcotest.(check int) "rows" 2 (List.length out.Bwc_experiments.Robustness.rows);
  List.iter
    (fun r ->
      let open Bwc_experiments.Robustness in
      (* the acceptance properties: every crash is detected and healed,
         the repaired system agrees with full stabilization everywhere,
         and incremental repair re-propagates strictly less *)
      Alcotest.(check bool)
        (Printf.sprintf "healed with %d victims" r.victims)
        true r.healed;
      Alcotest.(check bool) "overlay match" true r.overlay_match;
      Alcotest.(check bool) "fixpoint match" true r.fixpoint_match;
      Alcotest.(check bool)
        (Printf.sprintf "repair cheaper (%d vs %d msgs)" r.repair_msgs
           r.full_msgs)
        true
        (r.repair_msgs < r.full_msgs);
      Alcotest.(check bool) "detection before reconvergence" true
        (0 < r.detect_rounds && r.detect_rounds <= r.reconverge_rounds);
      Alcotest.(check bool) "suspicions preceded repairs" true
        (r.suspects >= r.victims);
      Alcotest.(check bool) "rr sane" true
        (0.0 <= r.rr_during && r.rr_during <= 1.0 && 0.0 <= r.rr_after
       && r.rr_after <= 1.0))
    out.Bwc_experiments.Robustness.rows

(* the E12/E13 gates: empty on a passing run, one line naming the row
   for each failed check *)
let test_robustness_gates () =
  let module R = Bwc_experiments.Robustness in
  let out =
    R.run ~drops:[ 0.0; 0.1 ] ~crash_rates:[ 0.0 ] ~queries:10 ~seed:5
      (small_dataset ~seed:4 16)
  in
  Alcotest.(check (list string)) "E12 passes" [] (R.gate out);
  let rows =
    List.map
      (fun r -> if r.R.drop > 0.0 then { r with R.converged = false } else r)
      out.R.rows
  in
  Alcotest.(check (list string)) "E12 names the row"
    [ "drop 0.100 crash 0.000: aggregation did not converge" ]
    (R.gate { out with R.rows });
  let rec_out =
    R.recovery ~victim_counts:[ 1 ] ~queries:10 ~seed:7 (small_dataset ~seed:6 20)
  in
  Alcotest.(check (list string)) "E13 passes" [] (R.recovery_gate rec_out);
  let rows =
    List.map (fun r -> { r with R.healed = false; overlay_match = false }) rec_out.R.rows
  in
  Alcotest.(check (list string)) "E13 names the row"
    [
      "victims 1: crashed hosts were not healed";
      "victims 1: repaired anchor overlay differs from full stabilization";
    ]
    (R.recovery_gate { rec_out with R.rows })

let test_trace_analytics_shapes () =
  let ds = small_dataset ~seed:32 32 in
  let out = Bwc_experiments.Trace_analytics.run ~victims:2 ~queries:20 ~seed:33 ds in
  let open Bwc_experiments.Trace_analytics in
  Alcotest.(check (list string))
    "scenarios" [ "clean"; "faulty"; "recovery" ]
    (List.map (fun r -> r.scenario) out.rows);
  List.iter
    (fun r ->
      (* the acceptance invariant: per-kind attribution sums exactly to
         the engine's send counter (query hops excluded on both sides) *)
      Alcotest.(check bool) (r.scenario ^ ": exact sum") true r.send_sum_matches;
      let non_query =
        List.fold_left
          (fun acc k -> if k.kind = "query" then acc else acc + k.sends)
          0 r.kinds
      in
      Alcotest.(check int) (r.scenario ^ ": kinds sum to messages") r.messages
        non_query;
      Alcotest.(check bool)
        (r.scenario ^ ": frac in [0,1]")
        true
        (0.0 <= r.frac_explained && r.frac_explained <= 1.0);
      Alcotest.(check bool) (r.scenario ^ ": critical path") true (r.cp_len > 0))
    out.rows;
  let find s = List.find (fun r -> r.scenario = s) out.rows in
  let kind r name = List.find (fun k -> k.kind = name) r.kinds in
  Alcotest.(check int) "clean run loses nothing" 0 (find "clean").dropped;
  Alcotest.(check bool) "faults drop traffic" true ((find "faulty").dropped > 0);
  Alcotest.(check bool) "drops force retransmits" true
    ((kind (find "faulty") "retransmit").sends > 0);
  Alcotest.(check bool) "detector heartbeats" true
    ((kind (find "recovery") "heartbeat").sends > 0);
  (* healing re-propagation is tagged repair (root-path/relink) or
     invalidate (ex-neighbor purge) depending on which repair path the
     overlay needed; either way the class must show up in attribution *)
  Alcotest.(check bool) "crash repairs traced" true
    ((kind (find "recovery") "repair").sends
       + (kind (find "recovery") "invalidate").sends
    > 0)

let test_recovery_critical_path () =
  (* the seeded E13-style recovery scenario behind `bwcluster analyze`:
     the witness chain is deterministic, so its kind sequence is a
     stable fact of the trace — aggregation converges (aggregate/ack
     chains), then detector heartbeats carry causality until the repair
     re-propagation closes the path *)
  let ds = small_dataset ~seed:32 32 in
  let events, engine_sends =
    Bwc_experiments.Trace_analytics.recovery_events ~victims:1 ~queries:20
      ~seed:33 ds
  in
  let report = Bwc_obs.Causal.analyze events in
  Alcotest.(check int) "send events 1:1 with engine sends" engine_sends
    (Bwc_obs.Causal.engine_sends report);
  let chain =
    List.map
      (fun (h : Bwc_obs.Causal.hop) -> Bwc_obs.Trace.kind_to_string h.h_kind)
      report.Bwc_obs.Causal.critical_path
  in
  Alcotest.(check (list string))
    "witness chain kinds"
    [
      "aggregate"; "ack"; "ack"; "ack"; "ack"; "ack"; "heartbeat"; "heartbeat";
      "heartbeat"; "heartbeat"; "heartbeat"; "heartbeat"; "heartbeat";
      "heartbeat"; "heartbeat"; "heartbeat"; "heartbeat"; "heartbeat";
      "heartbeat";
    ]
    chain;
  (* byte-identical rerun: same seed, same events, same report *)
  let events', _ =
    Bwc_experiments.Trace_analytics.recovery_events ~victims:1 ~queries:20
      ~seed:33 ds
  in
  Alcotest.(check string) "deterministic report"
    (Bwc_obs.Causal.to_json report)
    (Bwc_obs.Causal.to_json (Bwc_obs.Causal.analyze events'))

(* a dataset path is user input: the JSON reports must escape its name *)
let test_json_dataset_name () =
  let name = "my\"set\\x.csv" in
  let dataset what json =
    match Bwc_json.of_string json with
    | Error e -> Alcotest.failf "%s JSON does not parse: %s" what e
    | Ok v -> (
        match Bwc_json.member "dataset" v with
        | Some (Bwc_json.Str s) -> s
        | _ -> Alcotest.failf "%s JSON has no dataset string" what)
  in
  let overload =
    { Bwc_experiments.Overload.dataset = name; n = 8; ticks = 4; budget = 8; seed = 1;
      plateau = 1.5; rows = [] }
  in
  Alcotest.(check string) "overload" name
    (dataset "overload" (Bwc_experiments.Overload.to_json overload));
  let restart =
    { Bwc_experiments.Robustness.dataset = name; n = 8; queries = 4; snapshot_bytes = 100;
      base_rounds = 3; rr_clean = 1.0; rows = [] }
  in
  Alcotest.(check string) "restart" name
    (dataset "restart" (Bwc_experiments.Robustness.restart_to_json restart ~seed:1))

let test_csv_export () =
  let ds = small_dataset ~seed:26 50 in
  let out = Bwc_experiments.Tradeoff.run ~rounds:1 ~per_k:2 ~seed:27 ds in
  let path = Filename.temp_file "bwc" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bwc_experiments.Tradeoff.save_csv out path;
      let ic = open_in path in
      let header = input_line ic in
      let lines = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr lines
         done
       with End_of_file -> close_in ic);
      Alcotest.(check string) "header" "k,rr_central,rr_decentral,queries" header;
      Alcotest.(check int) "row count" (List.length out.Bwc_experiments.Tradeoff.rows) !lines)

let () =
  Alcotest.run "bwc_experiments"
    [
      ( "workload",
        [
          Alcotest.test_case "fixed k" `Quick test_workload_fixed_k;
          Alcotest.test_case "swept k" `Quick test_workload_swept_k;
          Alcotest.test_case "k fractions" `Quick test_workload_k_fractions;
          Alcotest.test_case "bandwidth range" `Quick test_bandwidth_range_percentiles;
        ] );
      ( "report",
        [
          Alcotest.test_case "renders" `Quick test_report_renders;
          Alcotest.test_case "columns render text and csv" `Quick test_report_columns;
          Alcotest.test_case "json escapes dataset name" `Quick test_json_dataset_name;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "accuracy (Fig.3)" `Slow test_accuracy_shapes;
          Alcotest.test_case "relative error (Fig.3)" `Slow test_relerr_tree_beats_eucl;
          Alcotest.test_case "tradeoff (Fig.4)" `Slow test_tradeoff_shapes;
          Alcotest.test_case "n_cut ablation (E7)" `Slow test_ncut_ablation_monotone;
          Alcotest.test_case "treeness (Fig.5)" `Slow test_treeness_shapes;
          Alcotest.test_case "scalability (Fig.6)" `Slow test_scalability_shapes;
          Alcotest.test_case "embedding ablation (E8)" `Slow
            test_embedding_ablation_shapes;
          Alcotest.test_case "oracle ablation (E9)" `Slow test_oracle_shapes;
          Alcotest.test_case "overhead (E10)" `Slow test_overhead_shapes;
          Alcotest.test_case "routing policy (E11)" `Slow test_routing_shapes;
          Alcotest.test_case "robustness (E12)" `Slow test_robustness_shapes;
          Alcotest.test_case "crash recovery (E13)" `Slow test_recovery_shapes;
          Alcotest.test_case "robustness gates (E12, E13)" `Slow test_robustness_gates;
          Alcotest.test_case "trace analytics (E16)" `Slow
            test_trace_analytics_shapes;
          Alcotest.test_case "recovery critical path (E16)" `Slow
            test_recovery_critical_path;
          Alcotest.test_case "csv export" `Quick test_csv_export;
        ] );
    ]
