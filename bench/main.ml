(* Benchmark harness.

   Part 1 regenerates every table/figure of the paper's evaluation
   (Sec. IV) at bench scale and prints the same series the paper reports;
   `BWC_BENCH_FULL=1 dune exec bench/main.exe` runs paper-scale
   parameters.  Part 2 is a Bechamel micro-benchmark suite for the core
   algorithms, including the O(n^3) scaling claim for Algorithm 1 (E6 in
   DESIGN.md). *)

module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset

let full = Sys.getenv_opt "BWC_BENCH_FULL" = Some "1"

let section title =
  Format.printf "@.==================================================================@.";
  Format.printf "== %s@." title;
  Format.printf "==================================================================@."

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

(* the experiments' acceptance gates: any failure line fails the bench *)
let enforce tag failures =
  List.iter (fun m -> Format.eprintf "%s: %s@." tag m) failures;
  if failures <> [] then exit 1

let hp_dataset ~seed =
  if full then Bwc_dataset.Planetlab.hp_like ~seed
  else
    Bwc_dataset.Planetlab.generate ~rng:(Rng.create seed) ~name:"HP-like-small"
      { Bwc_dataset.Planetlab.hp_target with n = 120 }

let umd_dataset ~seed =
  if full then Bwc_dataset.Planetlab.umd_like ~seed
  else
    Bwc_dataset.Planetlab.generate ~rng:(Rng.create seed) ~name:"UMD-like-small"
      { Bwc_dataset.Planetlab.umd_target with n = 150 }

let fig3 () =
  section "Fig. 3 (a,c) -- clustering accuracy: WPR vs b  [E1]";
  let rounds, queries = if full then (10, 1000) else (3, 250) in
  List.iter
    (fun ds ->
      let out = Bwc_experiments.Accuracy.run ~rounds ~queries_per_round:queries ~seed:1 ds in
      Bwc_experiments.Accuracy.print out)
    [ hp_dataset ~seed:11; umd_dataset ~seed:12 ];
  section "Fig. 3 (b,d) -- relative prediction-error CDFs  [E2]";
  let rounds = if full then 10 else 2 in
  List.iter
    (fun ds ->
      let out = Bwc_experiments.Relerr.run ~rounds ~seed:1 ds in
      Bwc_experiments.Relerr.print out)
    [ hp_dataset ~seed:11; umd_dataset ~seed:12 ]

let fig4 () =
  section "Fig. 4 -- tradeoff of decentralization: RR vs k  [E3]";
  let rounds, per_k = if full then (20, 5) else (4, 4) in
  List.iter
    (fun ds ->
      let out = Bwc_experiments.Tradeoff.run ~rounds ~per_k ~seed:2 ds in
      Bwc_experiments.Tradeoff.print out)
    [ hp_dataset ~seed:11; umd_dataset ~seed:12 ]

let fig5 () =
  section "Fig. 5 -- effect of treeness: WPR vs f_b, normalized by f_a*  [E4]";
  let rounds, queries = if full then (10, 2000) else (2, 300) in
  let out = Bwc_experiments.Treeness.run ~n:100 ~rounds ~queries_per_round:queries ~seed:3 () in
  Bwc_experiments.Treeness.print out

let fig6 () =
  section "Fig. 6 -- scalability: mean routing hops vs n  [E5]";
  let base = umd_dataset ~seed:12 in
  let n = Dataset.size base in
  let sizes, subsets, queries, rounds =
    if full then ([ 50; 100; 150; 200; 250; 300 ], 10, 1000, 10)
    else ([ 40; 80; 120; 150 ], 2, 80, 1)
  in
  let sizes = List.filter (fun s -> s <= n) sizes in
  let out =
    Bwc_experiments.Scalability.run ~sizes ~subsets_per_size:subsets
      ~queries_per_subset:queries ~rounds ~seed:4 base
  in
  Bwc_experiments.Scalability.print out

let ablations () =
  section "Ablation -- decentralized RR vs n_cut  [E7]";
  let ds = hp_dataset ~seed:11 in
  let rounds = if full then 10 else 2 in
  let rows = Bwc_experiments.Tradeoff.ncut_ablation ~rounds ~seed:5 ds in
  Bwc_experiments.Tradeoff.print_ablation ~dataset:ds.Dataset.name rows;
  section "Ablation -- embedding error vs construction mode  [E8]";
  let rows = Bwc_experiments.Embedding.run ~rounds:(if full then 5 else 2) ~seed:6 ds in
  Bwc_experiments.Embedding.print ~dataset:ds.Dataset.name rows;
  section "Ablation -- Algorithm 1 vs exact k-clique oracle  [E9]";
  let queries = if full then 100 else 30 in
  List.iter
    (fun sigma ->
      let noisy =
        if Float.equal sigma 0.0 then ds
        else Bwc_dataset.Noise.multiplicative ~rng:(Rng.create 61) ~sigma ds
      in
      let out = Bwc_experiments.Oracle.run ~queries_per_k:queries ~seed:7 noisy in
      Bwc_experiments.Oracle.print out)
    [ 0.0; 0.3 ];
  section "Ablation -- forwarding policy  [E11]";
  let out =
    Bwc_experiments.Routing.run
      ~rounds:(if full then 5 else 2)
      ~queries_per_k:(if full then 200 else 60)
      ~seed:9 ds
  in
  Bwc_experiments.Routing.print out;
  section "Background overhead vs system size  [E10]";
  let base = umd_dataset ~seed:12 in
  let sizes =
    List.filter (fun s -> s <= Dataset.size base)
      (if full then [ 50; 100; 150; 200; 250; 300 ] else [ 40; 80; 120; 150 ])
  in
  let out = Bwc_experiments.Overhead.run ~sizes ~repeats:2 ~seed:8 base in
  Bwc_experiments.Overhead.print out;
  section "Robustness under injected faults  [E12]";
  let small =
    let want = if full then Dataset.size ds else 60 in
    if want < Dataset.size ds then Dataset.random_subset ds ~rng:(Rng.create 62) want
    else ds
  in
  let out =
    Bwc_experiments.Robustness.run
      ~queries:(if full then 200 else 60)
      ~seed:10 small
  in
  Bwc_experiments.Robustness.print out;
  enforce "E12" (Bwc_experiments.Robustness.gate out)

let restart () =
  section "Crash-consistent restart: warm restore vs cold reconvergence  [E15]";
  let ds = hp_dataset ~seed:11 in
  let want = if full then Dataset.size ds else 64 in
  let small =
    if want < Dataset.size ds then Dataset.random_subset ds ~rng:(Rng.create 63) want
    else ds
  in
  let out =
    Bwc_experiments.Robustness.restart
      ~queries:(if full then 200 else 60)
      ~seed:3 small
  in
  Bwc_experiments.Robustness.print_restart out;
  enforce "E15" (Bwc_experiments.Robustness.restart_gate out)

let index_churn () =
  section "Incremental index maintenance under churn  [E14]";
  let sizes = [ 64; 128; 256; 384; 1024 ] in
  let rows =
    Bwc_experiments.Scalability.churn_sweep ~sizes
      ~events_per_size:(if full then 32 else 16)
      ~seed:1 ()
  in
  Bwc_experiments.Scalability.print_churn rows;
  write_file "BENCH_index.json" (Bwc_experiments.Scalability.churn_to_json rows ~seed:1);
  Format.printf "churn sweep written to BENCH_index.json@.";
  enforce "E14" (Bwc_experiments.Scalability.churn_gate rows)

(* BENCH_trace_overhead.json: one row per sink arm, each
   (name, (best_s, mean_s, engine_sends, events_emitted, events_retained)) *)
let trace_overhead_json ~dataset ~hosts ~queries ~repeats ~capacity ~overhead_pct arms =
  let open Bwc_json in
  let arm (name, (best, mean, sends, emitted, retained)) =
    Obj
      [ ("sink", Str name); ("best_s", Num (best, 6)); ("mean_s", Num (mean, 6));
        ("overhead_pct", Num (overhead_pct best, 2)); ("engine_sends", Int sends);
        ("events_emitted", Int emitted); ("events_retained", Int retained) ]
  in
  to_rows
    (Obj
       [ ("bench", Str "trace_overhead"); ("dataset", Str dataset);
         ("hosts", Int hosts); ("queries", Int queries); ("repeats", Int repeats);
         ("ring_capacity", Int capacity); ("arms", Arr (List.map arm arms)) ])

(* Cost of structured tracing on the hot path: the same seeded
   aggregation + query workload with the sink disabled, bounded to a
   ring, and unbounded.  Tracing must never perturb the protocol, so the
   engine send counter is asserted identical across arms before any
   timing is reported. *)
let trace_overhead () =
  section "Trace overhead: sink off vs bounded ring vs unbounded  [E16]";
  let ds =
    let base = hp_dataset ~seed:11 in
    let want = if full then Dataset.size base else 64 in
    if want < Dataset.size base then
      Dataset.random_subset base ~rng:(Rng.create 64) want
    else base
  in
  let n = Dataset.size ds in
  let queries = if full then 400 else 120 in
  let repeats = if full then 5 else 3 in
  let capacity = 1024 in
  let lo, hi = Bwc_experiments.Workload.bandwidth_range ds in
  let classes = Bwc_core.Classes.of_percentiles ~count:5 ds in
  let space = Dataset.metric ds in
  let run_arm trace =
    let ens = Bwc_predtree.Ensemble.build ~rng:(Rng.create 21) space in
    let p =
      Bwc_core.Protocol.create ~rng:(Rng.create 22) ~n_cut:4 ?trace ~classes ens
    in
    let (_ : int) = Bwc_core.Protocol.run_aggregation p in
    let qrng = Rng.create 23 in
    for _ = 1 to queries do
      ignore
        (Bwc_core.Protocol.query_bandwidth p ~at:(Rng.int qrng n)
           ~k:(2 + Rng.int qrng 6) ~b:(Rng.uniform qrng lo hi))
    done;
    Bwc_core.Protocol.messages_sent p
  in
  let time_arm mk =
    (* fresh sink per repeat so ring/unbounded arms never amortize
       allocation across repeats; best-of-N damps scheduler noise *)
    let best = ref Float.infinity and sum = ref 0.0 in
    let sends = ref 0 and emitted = ref 0 and retained = ref 0 in
    for _ = 1 to repeats do
      let trace = mk () in
      let t0 = Unix.gettimeofday () in
      sends := run_arm trace;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      sum := !sum +. dt;
      match trace with
      | None -> ()
      | Some t ->
          emitted := Bwc_obs.Trace.emitted t;
          retained := List.length (Bwc_obs.Trace.events t)
    done;
    (!best, !sum /. float_of_int repeats, !sends, !emitted, !retained)
  in
  let arms =
    [
      ("off", fun () -> None);
      ("ring", fun () -> Some (Bwc_obs.Trace.create ~capacity ()));
      ("unbounded", fun () -> Some (Bwc_obs.Trace.create ()));
    ]
  in
  let rows = List.map (fun (name, mk) -> (name, time_arm mk)) arms in
  let base_best, _, base_sends, _, _ = List.assoc "off" rows in
  List.iter
    (fun (name, (_, _, sends, _, _)) ->
      if sends <> base_sends then begin
        Format.eprintf
          "E16: tracing perturbed the protocol (%s arm sent %d messages, off arm %d)@."
          name sends base_sends;
        exit 1
      end)
    rows;
  let overhead_pct best =
    if base_best <= 0.0 then 0.0 else 100.0 *. (best -. base_best) /. base_best
  in
  Bwc_experiments.Report.table
    ~title:
      (Printf.sprintf
         "trace sink overhead -- %s n=%d, %d queries, best of %d" ds.Dataset.name
         n queries repeats)
    ~headers:[ "sink"; "best"; "mean"; "overhead"; "events"; "retained" ]
    (List.map
       (fun (name, (best, mean, _, emitted, retained)) ->
         [
           name;
           Printf.sprintf "%.1f ms" (best *. 1e3);
           Printf.sprintf "%.1f ms" (mean *. 1e3);
           Printf.sprintf "%+.1f%%" (overhead_pct best);
           string_of_int emitted;
           string_of_int retained;
         ])
       rows);
  write_file "BENCH_trace_overhead.json"
    (trace_overhead_json ~dataset:ds.Dataset.name ~hosts:n ~queries ~repeats ~capacity
       ~overhead_pct rows);
  Format.printf "trace overhead written to BENCH_trace_overhead.json@."

(* ----- Bechamel micro-benchmarks ----- *)

open Bechamel
open Toolkit

let tree_space ~seed n =
  Bwc_metric.Space.of_dmatrix
    (Bwc_dataset.Hier_tree.distance_matrix ~rng:(Rng.create seed) ~n ())

let micro_tests () =
  let spaces = List.map (fun n -> (n, tree_space ~seed:7 n)) [ 50; 100; 200 ] in
  let alg1 =
    List.map
      (fun (n, space) ->
        Test.make
          ~name:(Printf.sprintf "alg1-find n=%d" n)
          (Staged.stage (fun () ->
               ignore (Bwc_core.Find_cluster.find space ~k:(n / 10) ~l:200.0))))
      spaces
  in
  let index_build =
    List.map
      (fun (n, space) ->
        Test.make
          ~name:(Printf.sprintf "alg1-index-build n=%d" n)
          (Staged.stage (fun () -> ignore (Bwc_core.Find_cluster.Index.build space))))
      spaces
  in
  let ds = hp_dataset ~seed:11 in
  let sys = Bwc_core.Dynamic.create ~seed:8 ds in
  let protocol = Bwc_core.Dynamic.protocol sys in
  let rng = Rng.create 9 in
  let n = Bwc_core.Dynamic.member_count sys in
  let query_bench =
    Test.make ~name:"decentralized-query"
      (Staged.stage (fun () ->
           let at = Rng.int rng n in
           ignore (Bwc_core.Protocol.query protocol ~at ~k:8 ~cls:3)))
  in
  let ens = Bwc_core.Dynamic.ensemble sys in
  let labels_a = Bwc_predtree.Ensemble.labels ens 0 in
  let labels_b = Bwc_predtree.Ensemble.labels ens (n - 1) in
  let label_bench =
    Test.make ~name:"ensemble-label-dist"
      (Staged.stage (fun () -> ignore (Bwc_predtree.Ensemble.label_dist labels_a labels_b)))
  in
  let viv = Bwc_vivaldi.Vivaldi.embed ~rng:(Rng.create 10) (Dataset.metric ds) in
  let kidx = Bwc_euclid.Kdiam.Index.build (Bwc_vivaldi.Vivaldi.coords viv) in
  let kdiam_bench =
    Test.make ~name:"kdiam-find"
      (Staged.stage (fun () -> ignore (Bwc_euclid.Kdiam.Index.find kidx ~k:8 ~l:250.0)))
  in
  (* the kernels under churn and aggregation, at perfbench churn_storm's
     scale: a LEAVE then a JOIN of one of 288 members of an hp-like n = 384
     universe (each run leaves the index as it found it, cycling through
     the members), and Algorithm 3's own-row recount over clustering
     spaces of hub size, 72 and 110 points of an hp-like n = 190 *)
  let hp n =
    Bwc_dataset.Planetlab.generate ~rng:(Rng.create 13) ~name:"hp-like"
      { Bwc_dataset.Planetlab.hp_target with n }
  in
  let churn_bench =
    let space = Dataset.metric (hp 384) in
    let members = Array.sub (Rng.sample_without_replacement (Rng.create 14) 384 384) 0 288 in
    let idx = Bwc_core.Find_cluster.Index.build_subset space (Array.to_list members) in
    let next = ref 0 in
    Test.make ~name:"index-leave+join n=384 a=288"
      (Staged.stage (fun () ->
           let h = members.(!next) in
           next := (!next + 1) mod Array.length members;
           Bwc_core.Find_cluster.Index.remove_host idx h;
           Bwc_core.Find_cluster.Index.add_host idx h))
  in
  let own_row =
    let ds = hp 190 in
    let ls = Bwc_core.Classes.distances (Bwc_core.Classes.of_percentiles ds) in
    let points = Rng.sample_without_replacement (Rng.create 15) 190 190 in
    List.map
      (fun v ->
        let space = Bwc_metric.Space.restrict (Dataset.metric ds) (Array.sub points 0 v) in
        Test.make
          ~name:(Printf.sprintf "max_sizes |V|=%d" v)
          (Staged.stage (fun () -> ignore (Bwc_core.Find_cluster.max_sizes space ~ls))))
      [ 72; 110 ]
  in
  Test.make_grouped ~name:"bwcluster"
    (List.concat
       [ alg1; index_build; [ query_bench; label_bench; kdiam_bench; churn_bench ]; own_row ])

let run_micro () =
  section "Micro-benchmarks (Bechamel)  [E6: Algorithm 1 is O(n^3)]";
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if full then 1.0 else 0.4))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (micro_tests ()) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    (* sorted traversal keeps the printed table deterministic *)
    List.rev
      (Bwc_stats.Tbl.fold_sorted
         (fun name ols acc ->
           let ns =
             match Analyze.OLS.estimates ols with
             | Some (t :: _) -> t
             | Some [] | None -> Float.nan
           in
           let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols) in
           (name, ns, r2) :: acc)
         results [])
  in
  Bwc_experiments.Report.table ~title:"per-run cost (monotonic clock)"
    ~headers:[ "benchmark"; "time/run"; "r^2" ]
    (List.map
       (fun (name, ns, r2) ->
         let time =
           if Float.is_nan ns then "n/a"
           else if ns >= 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
           else if ns >= 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
           else if ns >= 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [ name; time; Printf.sprintf "%.3f" r2 ])
       rows)

let daemon () =
  section "Daemon overload sweep  [E17]";
  let ds =
    Bwc_dataset.Planetlab.generate ~rng:(Rng.create 5) ~name:"daemon-bench"
      { Bwc_dataset.Planetlab.hp_target with n = (if full then 96 else 48) }
  in
  let out =
    Bwc_experiments.Overload.run ~ticks:(if full then 600 else 200) ~seed:5 ds
  in
  Bwc_experiments.Overload.print out;
  write_file "BENCH_daemon.json" (Bwc_experiments.Overload.to_json out);
  Format.printf "overload sweep written to BENCH_daemon.json@.";
  enforce "E17" (Bwc_experiments.Overload.gate out)

(* Wall-clock phase profile via Bwc_obs.Span — the opt-in timing layer
   that is deliberately kept out of registries and traces (bench output
   is the one place wall time belongs). *)
let spans =
  List.map Bwc_obs.Span.create
    [ "fig3"; "fig4"; "fig5"; "fig6"; "ablations"; "restart"; "index-churn";
      "trace-overhead"; "daemon"; "micro" ]

let timed name f =
  let span = List.find (fun s -> Bwc_obs.Span.name s = name) spans in
  Bwc_obs.Span.time span f

(* `bench/main.exe -- --index-only` runs just the E14 churn sweep (the CI
   bench smoke job wants BENCH_index.json without paying for the full
   harness); `--trace-only` likewise runs just the E16 trace-overhead
   arms and emits BENCH_trace_overhead.json; `--daemon-only` just the E17
   overload sweep and emits BENCH_daemon.json *)
let index_only = Array.exists (String.equal "--index-only") Sys.argv
let trace_only = Array.exists (String.equal "--trace-only") Sys.argv
let daemon_only = Array.exists (String.equal "--daemon-only") Sys.argv
let fast_path = index_only || trace_only || daemon_only

let () =
  let t0 = Unix.gettimeofday () in
  Format.printf "bwcluster benchmark harness (%s scale)@."
    (if full then "paper" else "bench");
  if not fast_path then begin
    timed "fig3" fig3;
    timed "fig4" fig4;
    timed "fig5" fig5;
    timed "fig6" fig6;
    timed "ablations" ablations;
    timed "restart" restart
  end;
  if not (trace_only || daemon_only) then timed "index-churn" index_churn;
  if not (index_only || daemon_only) then timed "trace-overhead" trace_overhead;
  if not (index_only || trace_only) then timed "daemon" daemon;
  if not fast_path then timed "micro" run_micro;
  section "Phase profile (wall clock)";
  List.iter (fun s -> Format.printf "%a@." Bwc_obs.Span.pp s) spans;
  Format.printf "@.total wall time: %.1f s@." (Unix.gettimeofday () -. t0)
