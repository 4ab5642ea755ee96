(* Command-line driver: regenerate any of the paper's experiments, create
   synthetic datasets, or run one-off cluster queries.

   Every experiment takes --full to run at paper-scale parameters (slower);
   the defaults are scaled down but preserve the qualitative shapes. *)

open Cmdliner

(* Exit codes (documented in README.md): bad arguments, I/O failures and
   experiment-gate failures must be distinguishable to CI.

     0    success
     1    an I/O failure (unreadable dataset/trace/snapshot file,
          unwritable output path)
     3    an experiment's acceptance gate failed (divergence, missed
          speedup target, corrupted arm restored, ...)
     4    `restore` rejected the snapshot and no --cold-fallback was given
     124  bad command line (Cmdliner's cli_error)

   Everything that validates user input exits with
   [Cmd.Exit.cli_error]; everything that touches the filesystem exits
   with [exit_io] on [Sys_error] (every written file goes through
   [write_with]); everything that checks a result exits with
   [exit_gate].  Gate diagnostics go to stderr, never stdout, so piped
   report output stays parseable. *)
let exit_io = 1
let exit_gate = 3
let exit_snapshot_rejected = 4

let seed_arg =
  let doc = "Random seed (experiments derive per-round seeds from it)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let full_arg =
  let doc = "Run with the paper-scale parameters (slower)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let csv_arg =
  let doc = "Also write the series as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

(* Every file the CLI writes goes through here: [save path] failing
   with [Sys_error] exits [exit_io] with one message naming [path].
   Sys_error texts read "<file>: <reason>", so only the reason is kept. *)
let write_with save path =
  try save path
  with Sys_error msg ->
    let reason =
      match String.rindex_opt msg ':' with
      | Some i -> String.trim (String.sub msg (i + 1) (String.length msg - i - 1))
      | None -> msg
    in
    Format.eprintf "bwcluster: cannot write %s: %s@." path reason;
    exit exit_io

(* whole or not at all: a failed write, its final flush included,
   raises [Sys_error] and leaves neither the file nor its temp file *)
let write_string contents path = Bwc_persist.Codec.write_file path contents

let json_arg doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let dataset_arg =
  let doc =
    "Dataset: 'hp' (HP-PlanetLab-like, 190 hosts), 'umd' (UMD-PlanetLab-like, \
     317 hosts), 'hp-small'/'umd-small' (120-host variants for quick runs), or \
     a path to a CSV bandwidth matrix."
  in
  Arg.(value & opt string "hp-small" & info [ "dataset" ] ~docv:"NAME" ~doc)

let load_dataset ~seed name =
  match Bwc_dataset.Planetlab.load ~seed name with
  | Ok ds -> ds
  | Error e ->
      Format.eprintf "bwcluster: cannot read dataset %s: %s@." name
        (Bwc_dataset.Dataset.load_error_to_string e);
      exit exit_io

(* A numeric converter that rejects values outside [ok] while parsing,
   so every command gets Cmdliner's usage error (exit 124) before it
   does any work *)
let checked conv ok ~must =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) -> Error (`Msg ("must be " ^ must))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let at_least n =
  checked Arg.int (fun v -> v >= n) ~must:(Printf.sprintf "at least %d" n)

let positive =
  checked Arg.float (fun v -> v > 0.0 && Float.is_finite v) ~must:"positive and finite"

let probability =
  checked Arg.float (fun p -> p >= 0.0 && p <= 1.0) ~must:"in [0,1]"

let hosts_arg =
  Arg.(
    value
    & opt (some (at_least 2)) None
    & info [ "hosts" ] ~docv:"N"
        ~doc:"Restrict the dataset to a random N-host subset, N >= 2 (quick runs).")

let subset_hosts ~seed hosts ds =
  match hosts with
  | Some h when h < Bwc_dataset.Dataset.size ds ->
      Bwc_dataset.Dataset.random_subset ds ~rng:(Bwc_stats.Rng.create seed) h
  | _ -> ds

(* ----- the experiment runner ----- *)

(* Every experiment subcommand runs through [experiment]: [term] parses
   the subcommand's own flags into a function of the common options
   --seed, --full and --csv ([~full:false] and [~csv:false] leave them
   out) and of the dataset.  The dataset is loaded from --dataset (from
   its default when [~dataset:false]) the first time the experiment
   forces it, and cut to --hosts when [~hosts:true]; without --hosts,
   [default_hosts full] caps its size. *)
let experiment ?(dataset = true) ?(full = true) ?(csv = true) ?(hosts = false)
    ?default_hosts name ~doc term =
  let flag on arg default = if on then arg else Term.const default in
  let run f seed full csv name hosts =
    let hosts =
      match (hosts, default_hosts) with
      | None, Some cap -> Some (cap full)
      | hosts, _ -> hosts
    in
    f ~seed ~full ~csv (lazy (subset_hosts ~seed hosts (load_dataset ~seed name)))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ term $ seed_arg $ flag full full_arg false $ flag csv csv_arg None
      $ flag dataset dataset_arg "hp-small"
      $ flag hosts hosts_arg None)

(* The end of every experiment: print the text report, write the files
   the output options name (in order, saying so), and exit [exit_gate]
   when the gate lists failures, one stderr line each under [gate]'s
   name *)
let report ?(files = []) ?gate print out =
  print out;
  List.iter
    (fun (what, path, save) ->
      Option.iter
        (fun path ->
          write_with (save out) path;
          Format.printf "%s written to %s@." what path)
        path)
    files;
  Option.iter
    (fun (name, gate) ->
      let failures = gate out in
      List.iter (fun m -> Format.eprintf "%s: %s@." name m) failures;
      if failures <> [] then exit exit_gate)
    gate

let csv_out path save = ("csv", path, save)
let json_out path to_json = ("json", path, fun out -> write_string (to_json out))

module E = Bwc_experiments

(* ----- accuracy (E1) ----- *)

let accuracy_cmd =
  experiment "accuracy"
    ~doc:"Fig. 3(a,c): WPR vs bandwidth constraint for the three approaches."
    (Term.const (fun ~seed ~full ~csv ds ->
         let rounds, queries = if full then (10, 1000) else (3, 250) in
         E.Accuracy.run ~rounds ~queries_per_round:queries ~seed (Lazy.force ds)
         |> report E.Accuracy.print ~files:[ csv_out csv E.Accuracy.save_csv ]))

(* ----- relative error CDF (E2) ----- *)

let relerr_cmd =
  experiment "relerr" ~doc:"Fig. 3(b,d): CDF of relative bandwidth-prediction errors."
    (Term.const (fun ~seed ~full ~csv ds ->
         E.Relerr.run ~rounds:(if full then 10 else 3) ~seed (Lazy.force ds)
         |> report E.Relerr.print ~files:[ csv_out csv E.Relerr.save_csv ]))

(* ----- tradeoff (E3 + E7) ----- *)

let tradeoff_cmd =
  let ablate =
    Arg.(value & flag & info [ "ablate-ncut" ] ~doc:"Sweep n_cut instead (E7 ablation).")
  in
  experiment "tradeoff" ~doc:"Fig. 4: return rate vs k, centralized vs decentralized."
    Term.(
      const (fun ablate ~seed ~full ~csv ds ->
          let ds = Lazy.force ds in
          let rounds, per_k = if full then (20, 5) else (4, 4) in
          if ablate then
            E.Tradeoff.ncut_ablation ~rounds ~per_k ~seed ds
            |> report (E.Tradeoff.print_ablation ~dataset:ds.Bwc_dataset.Dataset.name)
          else
            E.Tradeoff.run ~rounds ~per_k ~seed ds
            |> report E.Tradeoff.print ~files:[ csv_out csv E.Tradeoff.save_csv ])
      $ ablate)

(* ----- treeness (E4) ----- *)

let treeness_cmd =
  experiment "treeness" ~dataset:false
    ~doc:"Fig. 5: effect of dataset treeness (epsilon) on WPR."
    (Term.const (fun ~seed ~full ~csv _ ->
         let rounds, queries = if full then (10, 2000) else (2, 300) in
         E.Treeness.run ~n:100 ~rounds ~queries_per_round:queries ~seed ()
         |> report E.Treeness.print ~files:[ csv_out csv E.Treeness.save_csv ]))

(* ----- scalability (E5), churn sweep (E14) ----- *)

let scalability_cmd =
  let churn =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:
            "Run the E14 churn sweep instead: incremental index maintenance \
             vs rebuild-from-scratch, with differential and witness checking \
             (exits non-zero on any divergence).")
  in
  let json =
    json_arg "With $(b,--churn): also write the sweep as JSON (BENCH_index.json schema)."
  in
  experiment "scalability" ~doc:"Fig. 6: mean query routing hops vs system size."
    Term.(
      const (fun churn json ~seed ~full ~csv ds ->
          if churn then
            E.Scalability.churn_sweep
              ~sizes:(if full then [ 64; 128; 256; 384; 1024 ] else [ 64; 128; 256 ])
              ~events_per_size:(if full then 32 else 16)
              ~seed ()
            |> report E.Scalability.print_churn
                 ~files:[ json_out json (E.Scalability.churn_to_json ~seed) ]
                 ~gate:("churn sweep", E.Scalability.churn_gate)
          else begin
            let ds = Lazy.force ds in
            let sizes, subsets, queries, rounds =
              if full then ([ 50; 100; 150; 200; 250; 300 ], 10, 1000, 10)
              else ([ 40; 80; 120 ], 2, 80, 1)
            in
            let n = Bwc_dataset.Dataset.size ds in
            let sizes = List.filter (fun s -> s <= n) sizes in
            E.Scalability.run ~sizes ~subsets_per_size:subsets ~queries_per_subset:queries
              ~rounds ~seed ds
            |> report E.Scalability.print ~files:[ csv_out csv E.Scalability.save_csv ]
          end)
      $ churn $ json)

(* ----- embedding ablation (E8) ----- *)

let embedding_cmd =
  experiment "embedding" ~csv:false
    ~doc:"Ablation: embedding error vs construction mode and ensemble size."
    (Term.const (fun ~seed ~full ~csv:_ ds ->
         let ds = Lazy.force ds in
         E.Embedding.run ~rounds:(if full then 5 else 2) ~seed ds
         |> report (E.Embedding.print ~dataset:ds.Bwc_dataset.Dataset.name)))

(* ----- oracle ablation (E9) ----- *)

let oracle_cmd =
  experiment "oracle"
    ~doc:"Ablation: Algorithm 1 on real data vs the exact k-clique oracle."
    (Term.const (fun ~seed ~full ~csv ds ->
         E.Oracle.run ~queries_per_k:(if full then 100 else 30) ~seed (Lazy.force ds)
         |> report E.Oracle.print ~files:[ csv_out csv E.Oracle.save_csv ]))

(* ----- overhead (E10) ----- *)

let overhead_cmd =
  experiment "overhead"
    ~doc:"Background protocol overhead (measurements, messages) vs system size."
    (Term.const (fun ~seed ~full ~csv ds ->
         let ds = Lazy.force ds in
         let n = Bwc_dataset.Dataset.size ds in
         let sizes =
           List.filter (fun s -> s <= n)
             (if full then [ 50; 100; 150; 200; 250; 300 ] else [ 40; 80; 120 ])
         in
         E.Overhead.run ~sizes ~repeats:(if full then 5 else 2) ~seed ds
         |> report E.Overhead.print ~files:[ csv_out csv E.Overhead.save_csv ]))

(* ----- routing-policy ablation (E11) ----- *)

let routing_cmd =
  experiment "routing"
    ~doc:"Ablation: forwarding-policy comparison (best-CRT vs first neighbor)."
    (Term.const (fun ~seed ~full ~csv ds ->
         let rounds, queries = if full then (5, 200) else (2, 60) in
         E.Routing.run ~rounds ~queries_per_k:queries ~seed (Lazy.force ds)
         |> report E.Routing.print ~files:[ csv_out csv E.Routing.save_csv ]))

(* ----- robustness under faults (E12), crash recovery (E13) ----- *)

let robustness_cmd =
  let doc =
    "Robustness: aggregation fixed point and query recall under message loss, \
     duplication, jitter and crash/restart windows.  With $(b,--recovery), \
     the E13 crash-recovery comparison instead: detector-driven incremental \
     self-healing vs oracle eviction with full re-propagation."
  in
  let recover =
    Arg.(
      value & flag
      & info [ "recovery" ]
          ~doc:
            "Run the crash-recovery experiment (failure detection, \
             self-healing repair, messages saved vs full stabilization).")
  in
  let module R = E.Robustness in
  experiment "robustness" ~hosts:true ~doc
    Term.(
      const (fun recover ~seed ~full ~csv ds ->
          let ds = Lazy.force ds in
          if recover then
            let victim_counts, queries =
              if full then ([ 1; 2; 3; 4 ], 200) else ([ 1; 2 ], 60)
            in
            R.recovery ~victim_counts ~queries ~seed ds
            |> report R.print_recovery ~files:[ csv_out csv R.save_recovery_csv ]
                 ~gate:("recovery gate", R.recovery_gate)
          else
            let drops, crash_rates, queries =
              if full then ([ 0.0; 0.05; 0.1; 0.2; 0.3 ], [ 0.0; 0.1; 0.2 ], 200)
              else ([ 0.0; 0.1; 0.2 ], [ 0.0; 0.15 ], 60)
            in
            R.run ~drops ~crash_rates ~queries ~seed ds
            |> report R.print ~files:[ csv_out csv R.save_csv ]
                 ~gate:("robustness gate", R.gate))
      $ recover)

(* ----- crash-consistent restart (E15) ----- *)

let restart_cmd =
  let doc =
    "E15: whole-system crash and restart.  Warm restore from a verified \
     snapshot vs cold reconvergence, plus corrupted-snapshot arms \
     (truncation, bit flips, stale format version) that must degrade \
     gracefully.  Exits 3 when the acceptance gate fails."
  in
  let module R = E.Robustness in
  experiment "restart" ~hosts:true ~doc
    Term.(
      const (fun json ~seed ~full ~csv ds ->
          R.restart ~queries:(if full then 200 else 60) ~seed (Lazy.force ds)
          |> report R.print_restart
               ~files:
                 [ csv_out csv R.save_restart_csv; json_out json (R.restart_to_json ~seed) ]
               ~gate:("restart gate", R.restart_gate))
      $ json_arg "Also write the result as JSON.")

(* ----- overload (E17) ----- *)

let overload_cmd =
  let doc =
    "E17: the daemon reactor under an offered-load sweep.  Goodput must \
     plateau at service capacity instead of collapsing, every request must \
     resolve to exactly one typed response (answer, shed, timeout, or \
     rejection — never a silent drop), degraded answers must carry an \
     explicit staleness bound, and same-seed replays must be \
     byte-identical.  Exits 3 when the acceptance gate fails."
  in
  (* the sweep runs 8 daemon instances (4 loads x 2 replay runs); without
     --hosts keep the system small enough that the arm cost is the
     scripted load, not index construction *)
  experiment "overload" ~hosts:true
    ~default_hosts:(fun full -> if full then 96 else 48)
    ~doc
    Term.(
      const (fun json ~seed ~full ~csv ds ->
          E.Overload.run ~ticks:(if full then 600 else 200) ~seed (Lazy.force ds)
          |> report E.Overload.print
               ~files:[ csv_out csv E.Overload.save_csv; json_out json E.Overload.to_json ]
               ~gate:("overload gate", E.Overload.gate))
      $ json_arg "Also write the result as JSON.")

(* ----- snapshot / restore ----- *)

let snapshot seed dataset hosts output =
  let ds = subset_hosts ~seed hosts (load_dataset ~seed dataset) in
  let sys = Bwc_core.Dynamic.create ~seed ds in
  let image = Bwc_persist.Snapshot.encode (`Dynamic sys) in
  write_with (fun path -> Bwc_persist.Codec.write_file path image) output;
  Format.printf "wrote %s: %d bytes, %d hosts, converged in %d rounds@." output
    (String.length image) (Bwc_core.Dynamic.member_count sys)
    (Bwc_core.Protocol.rounds_run (Bwc_core.Dynamic.protocol sys))

let snapshot_cmd =
  let doc =
    "Stand up a system over a dataset, run aggregation to quiescence and \
     write a crash-consistent snapshot of the whole system state."
  in
  let output =
    Arg.(
      value
      & opt string "system.bwcsnap"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Snapshot output path.")
  in
  Cmd.v (Cmd.info "snapshot" ~doc)
    Term.(const snapshot $ seed_arg $ dataset_arg $ hosts_arg $ output)

let restore seed dataset hosts input resnapshot cold_fallback k b =
  let bytes =
    try Bwc_persist.Codec.read_file input
    with Sys_error msg ->
      Format.eprintf "bwcluster: cannot read snapshot: %s@." msg;
      exit exit_io
  in
  let prove_system ~warm sys =
    Format.printf "%s: %d hosts live at round %d@."
      (if warm then "restored warm" else "cold start")
      (Bwc_core.Dynamic.member_count sys)
      (Bwc_core.Protocol.current_round (Bwc_core.Dynamic.protocol sys));
    (* re-snapshot before the proving query: the query draws a submission
       point from the system RNG, and the restored image must stay
       byte-identical to what was on disk *)
    (match resnapshot with
    | Some path ->
        write_with
          (fun path ->
            Bwc_persist.Codec.write_file path
              (Bwc_persist.Snapshot.encode (`Dynamic sys)))
          path;
        Format.printf "re-snapshot written to %s@." path
    | None -> ());
    Format.printf "query: %a@." Bwc_core.Query.pp_result
      (Bwc_core.Dynamic.query sys ~k ~b)
  in
  match Bwc_persist.Snapshot.decode bytes with
  | Ok sys -> prove_system ~warm:true sys
  | Error e ->
      Format.eprintf "bwcluster: persist.restore_rejected: %s@."
        (Bwc_persist.Codec.error_to_string e);
      if not cold_fallback then exit exit_snapshot_rejected;
      Format.printf "falling back to cold reconvergence over --dataset %s@."
        dataset;
      prove_system ~warm:false
        (Bwc_core.Dynamic.create ~seed
           (subset_hosts ~seed hosts (load_dataset ~seed dataset)))

let restore_cmd =
  let doc =
    "Restore a system from a snapshot file and prove it is live with one \
     query.  A rejected snapshot (truncated, bit-flipped, stale version, or \
     semantically invalid) exits 4 — or, with $(b,--cold-fallback), rebuilds \
     the system from $(b,--dataset) with full reconvergence and exits 0."
  in
  let input =
    Arg.(
      required
      & opt (some string) None
      & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Snapshot file to restore from.")
  in
  let resnapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "resnapshot" ] ~docv:"FILE"
          ~doc:
            "Write the restored system's own snapshot to $(docv); it must be \
             byte-identical to the input (CI checks with cmp).")
  in
  let cold_fallback =
    Arg.(
      value & flag
      & info [ "cold-fallback" ]
          ~doc:
            "On a rejected snapshot, rebuild from $(b,--dataset) instead of \
             exiting 4.")
  in
  let k =
    Arg.(
      value
      & opt (at_least 2) 8
      & info [ "k" ] ~docv:"K" ~doc:"Proving-query cluster size.")
  in
  let b =
    Arg.(
      value
      & opt positive 40.0
      & info [ "b" ] ~docv:"MBPS" ~doc:"Proving-query bandwidth constraint (Mbps).")
  in
  Cmd.v (Cmd.info "restore" ~doc)
    Term.(
      const restore $ seed_arg $ dataset_arg $ hosts_arg $ input $ resnapshot
      $ cold_fallback $ k $ b)

(* ----- dynamic membership demo ----- *)

let dynamic seed dataset epochs =
  let ds = load_dataset ~seed dataset in
  let n = Bwc_dataset.Dataset.size ds in
  let initial = List.init (2 * n / 3) (fun i -> i) in
  let dyn = Bwc_core.Dynamic.create ~seed ~initial_members:initial ds in
  let churn =
    Bwc_sim.Churn.random
      ~rng:(Bwc_stats.Rng.create (seed + 1))
      ~n ~rounds:epochs ~leave_prob:0.05 ~rejoin_prob:0.15
  in
  let rng = Bwc_stats.Rng.create (seed + 2) in
  let lo, hi = Bwc_dataset.Dataset.percentile_range ds ~lo:20.0 ~hi:80.0 in
  Bwc_core.Dynamic.run_scenario dyn ~churn ~rounds:epochs ~on_round:(fun epoch dyn ->
      let found = ref 0 and total = 30 in
      for _ = 1 to total do
        let b = Bwc_stats.Rng.uniform rng lo hi in
        if Bwc_core.Query.found (Bwc_core.Dynamic.query dyn ~k:6 ~b) then incr found
      done;
      Format.printf "epoch %2d: members=%3d RR=%d/%d@." epoch
        (Bwc_core.Dynamic.member_count dyn)
        !found total)

let dynamic_cmd =
  let doc = "Run a churn scenario: hosts join and leave while queries keep flowing." in
  let epochs =
    Arg.(
      value & opt (at_least 0) 8 & info [ "epochs" ] ~docv:"N" ~doc:"Churn epochs to run.")
  in
  Cmd.v (Cmd.info "dynamic" ~doc) Term.(const dynamic $ seed_arg $ dataset_arg $ epochs)

(* ----- dataset generation ----- *)

let gen seed dataset output =
  let ds = load_dataset ~seed dataset in
  write_with (write_string (Bwc_dataset.Dataset.to_csv ds)) output;
  let lo, hi = Bwc_dataset.Dataset.percentile_range ds ~lo:20.0 ~hi:80.0 in
  Format.printf "wrote %s: %d hosts, bandwidth p20=%.1f p80=%.1f Mbps@." output
    (Bwc_dataset.Dataset.size ds) lo hi

let gen_cmd =
  let doc = "Generate a synthetic dataset and write it as CSV." in
  let output =
    Arg.(
      value
      & opt string "dataset.csv"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output CSV path.")
  in
  Cmd.v (Cmd.info "gen" ~doc) Term.(const gen $ seed_arg $ dataset_arg $ output)

(* ----- overlay export ----- *)

let export_tree seed dataset output =
  let ds = load_dataset ~seed dataset in
  let sys = Bwc_core.Dynamic.create ~seed ds in
  let fw = Bwc_predtree.Ensemble.primary (Bwc_core.Dynamic.ensemble sys) in
  let write path contents = write_with (write_string contents) path in
  let pred_path = output ^ ".prediction.dot" in
  let anchor_path = output ^ ".anchor.dot" in
  write pred_path
    (Bwc_predtree.Tree.to_dot ~label:ds.Bwc_dataset.Dataset.name
       (Bwc_predtree.Framework.tree fw));
  write anchor_path
    (Bwc_predtree.Anchor.to_dot ~label:ds.Bwc_dataset.Dataset.name
       (Bwc_predtree.Framework.anchor fw));
  Format.printf "wrote %s and %s (render with graphviz)@." pred_path anchor_path

let export_tree_cmd =
  let doc = "Export the prediction tree and anchor overlay as Graphviz DOT files." in
  let output =
    Arg.(value & opt string "overlay" & info [ "o"; "output" ] ~docv:"PREFIX"
           ~doc:"Output filename prefix.")
  in
  Cmd.v (Cmd.info "export-tree" ~doc)
    Term.(const export_tree $ seed_arg $ dataset_arg $ output)

(* ----- dataset diagnostics ----- *)

let inspect seed dataset =
  let ds = load_dataset ~seed dataset in
  let n = Bwc_dataset.Dataset.size ds in
  Format.printf "dataset %s: %d hosts, %d pairs@." ds.Bwc_dataset.Dataset.name n
    (n * (n - 1) / 2);
  let values = Bwc_dataset.Dataset.bandwidth_values ds in
  (match Bwc_stats.Summary.of_array values with
  | Some d -> Format.printf "bandwidth (Mbps): %a@." Bwc_stats.Summary.pp d
  | None -> ());
  let rng = Bwc_stats.Rng.create seed in
  let space = Bwc_dataset.Dataset.metric ds in
  let report = Bwc_metric.Check.verify ~rng space in
  Format.printf "metric properties: %a@." Bwc_metric.Check.pp report;
  let eps = Bwc_metric.Fourpoint.epsilon_avg ~samples:30_000 ~rng space in
  Format.printf "treeness: epsilon_avg = %.4f (epsilon* = %.4f)@." eps
    (Bwc_metric.Fourpoint.epsilon_star eps);
  let hist = Bwc_stats.Histogram.create ~lo:(Bwc_stats.Summary.min values)
      ~hi:(Bwc_stats.Summary.max values +. 1e-9) ~bins:12 in
  Bwc_stats.Histogram.add_all hist values;
  Format.printf "bandwidth distribution:@.%a" Bwc_stats.Histogram.pp hist

let inspect_cmd =
  let doc = "Print dataset diagnostics: metric checks, treeness, distribution." in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const inspect $ seed_arg $ dataset_arg)

(* ----- one-off query ----- *)

let query seed dataset k b =
  let ds = load_dataset ~seed dataset in
  let sys = Bwc_core.Dynamic.create ~seed ds in
  Format.printf "system of %d hosts up (aggregation: %d rounds, %d messages)@."
    (Bwc_core.Dynamic.member_count sys)
    (Bwc_core.Protocol.rounds_run (Bwc_core.Dynamic.protocol sys))
    (Bwc_core.Protocol.messages_sent (Bwc_core.Dynamic.protocol sys));
  let result = Bwc_core.Dynamic.query sys ~k ~b in
  Format.printf "decentralized: %a@." Bwc_core.Query.pp_result result;
  (match result.Bwc_core.Query.cluster with
  | Some cluster ->
      let bad = Bwc_core.Dynamic.verify_cluster sys ~b cluster in
      Format.printf "real-bandwidth violations: %d of %d pairs@." (List.length bad)
        (List.length cluster * (List.length cluster - 1) / 2)
  | None -> ());
  (* TREE-CENTRAL: one-shot Algorithm 1 over the predicted distances *)
  let predicted = Bwc_predtree.Ensemble.predicted_space (Bwc_core.Dynamic.ensemble sys) in
  match
    Bwc_core.Find_cluster.find predicted ~k ~l:(Bwc_metric.Bandwidth.to_distance b)
  with
  | Some cluster ->
      Format.printf "centralized:   found {%s}@."
        (String.concat ", " (List.map string_of_int cluster))
  | None -> Format.printf "centralized:   not found@."

let query_cmd =
  let doc = "Stand up a system and run one bandwidth-constrained cluster query." in
  let k =
    Arg.(
      value & opt (at_least 2) 8 & info [ "k" ] ~docv:"K" ~doc:"Cluster size constraint.")
  in
  let b =
    Arg.(
      value
      & opt positive 40.0
      & info [ "b" ] ~docv:"MBPS" ~doc:"Minimum pairwise bandwidth constraint (Mbps).")
  in
  Cmd.v (Cmd.info "query" ~doc) Term.(const query $ seed_arg $ dataset_arg $ k $ b)

(* ----- observability: trace + metrics ----- *)

(* One deterministic scenario shared by `trace` and `metrics`: stand up an
   ensemble + protocol (optionally under a fault plan) on one registry and
   one trace sink, run the aggregation, then replay a seeded query
   stream.  Everything derives from --seed, so two runs with the same
   arguments produce byte-identical output. *)
let build_observed ~seed ~dataset ~hosts ~drop ~duplicate ~jitter ~queries =
  let ds = subset_hosts ~seed hosts (load_dataset ~seed dataset) in
  let n = Bwc_dataset.Dataset.size ds in
  let space = Bwc_dataset.Dataset.metric ds in
  let metrics = Bwc_obs.Registry.create () in
  let trace = Bwc_obs.Trace.create () in
  let faults =
    Bwc_sim.Fault.create ~drop ~duplicate ~jitter ~metrics
      ~rng:(Bwc_stats.Rng.create (seed + 1)) ()
  in
  let ens = Bwc_predtree.Ensemble.build ~rng:(Bwc_stats.Rng.create (seed + 2)) ~metrics space in
  let classes = Bwc_core.Classes.of_percentiles ~count:5 ds in
  let protocol =
    Bwc_core.Protocol.create ~rng:(Bwc_stats.Rng.create (seed + 3)) ~n_cut:4 ~faults
      ~metrics ~trace ~classes ens
  in
  let (_ : int) = Bwc_core.Protocol.run_aggregation protocol in
  let lo, hi = Bwc_dataset.Dataset.percentile_range ds ~lo:20.0 ~hi:80.0 in
  let qrng = Bwc_stats.Rng.create (seed + 4) in
  for _ = 1 to queries do
    let at = Bwc_stats.Rng.int qrng n in
    let k = 2 + Bwc_stats.Rng.int qrng 6 in
    let b = Bwc_stats.Rng.uniform qrng lo hi in
    ignore (Bwc_core.Protocol.query_bandwidth protocol ~at ~k ~b)
  done;
  (metrics, trace)

let write_or_print output contents =
  match output with
  | Some path ->
      write_with (write_string contents) path;
      Format.printf "wrote %s@." path
  | None -> print_string contents

let drop_arg =
  Arg.(value & opt probability 0.1
       & info [ "drop" ] ~docv:"P" ~doc:"Per-message loss probability.")

let duplicate_arg =
  Arg.(value & opt probability 0.05
       & info [ "duplicate" ] ~docv:"P" ~doc:"Per-message duplication probability.")

let jitter_arg =
  Arg.(value & opt (at_least 0) 1
       & info [ "jitter" ] ~docv:"R" ~doc:"Maximum extra delivery delay in rounds.")

let queries_arg =
  Arg.(value & opt (at_least 0) 20
       & info [ "queries" ] ~docv:"N" ~doc:"Queries to replay after aggregation.")

let out_arg doc = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let trace seed dataset hosts drop duplicate jitter queries output =
  let _, tr =
    build_observed ~seed ~dataset ~hosts ~drop ~duplicate ~jitter ~queries
  in
  write_or_print output (Bwc_obs.Trace.to_jsonl tr)

let trace_cmd =
  let doc =
    "Run a deterministic fault scenario and emit its structured event trace as \
     JSONL (one event per line, clocked by simulation rounds).  Identical \
     arguments produce byte-identical traces."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const trace $ seed_arg $ dataset_arg $ hosts_arg $ drop_arg $ duplicate_arg
      $ jitter_arg $ queries_arg
      $ out_arg "Write the JSONL trace to $(docv) instead of stdout.")

let metrics_report seed dataset hosts drop duplicate jitter queries json output =
  let reg, _ =
    build_observed ~seed ~dataset ~hosts ~drop ~duplicate ~jitter ~queries
  in
  let snap = Bwc_obs.Registry.snapshot reg in
  let contents =
    if json then Bwc_obs.Registry.to_json snap ^ "\n"
    else Bwc_obs.Registry.to_text snap
  in
  write_or_print output contents

let metrics_cmd =
  let doc =
    "Run a deterministic fault scenario and print the full metrics registry \
     snapshot (engine, fault, protocol, query and prediction-tree series)."
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the snapshot as JSON.")
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(
      const metrics_report $ seed_arg $ dataset_arg $ hosts_arg $ drop_arg
      $ duplicate_arg $ jitter_arg $ queries_arg $ json
      $ out_arg "Write the report to $(docv) instead of stdout.")

(* ----- causal trace analytics ----- *)

let analyze seed dataset hosts input json output =
  let events =
    match input with
    | Some path ->
        let contents =
          try In_channel.with_open_bin path In_channel.input_all
          with Sys_error msg ->
            Format.eprintf "bwcluster: cannot read %s: %s@." path msg;
            exit exit_io
        in
        (match Bwc_obs.Trace.of_jsonl contents with
        | Ok evs -> evs
        | Error msg ->
            Format.eprintf "bwcluster: %s: %s@." path msg;
            exit Cmdliner.Cmd.Exit.cli_error)
    | None ->
        (* default scenario: the seeded E13-style crash-recovery run *)
        let ds = subset_hosts ~seed hosts (load_dataset ~seed dataset) in
        fst (Bwc_experiments.Trace_analytics.recovery_events ~seed ds)
  in
  let report = Bwc_obs.Causal.analyze events in
  let contents =
    if json then Bwc_obs.Causal.to_json report ^ "\n"
    else Bwc_obs.Causal.to_text report
  in
  write_or_print output contents

let analyze_cmd =
  let doc =
    "Reconstruct happens-before over a structured trace and report the \
     convergence critical path (the witness chain of messages convergence \
     actually waited for), per-kind byte attribution, busiest links and a \
     round waterfall.  Without $(b,--input), runs the seeded crash-recovery \
     scenario (detector + crashes) and analyzes its own trace; identical \
     arguments produce byte-identical reports."
  in
  let input =
    Arg.(
      value
      & opt (some string) None
      & info [ "i"; "input" ] ~docv:"FILE"
          ~doc:"Analyze an existing JSONL trace instead of running a scenario.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const analyze $ seed_arg $ dataset_arg $ hosts_arg $ input $ json
      $ out_arg "Write the report to $(docv) instead of stdout.")

let trace_diff left right =
  let result =
    try Bwc_obs.Trace_diff.diff_files left right
    with Sys_error msg ->
      Format.eprintf "bwcluster: %s@." msg;
      exit exit_io
  in
  print_string
    (Bwc_obs.Trace_diff.to_string ~left_name:left ~right_name:right result);
  match result with
  | Bwc_obs.Trace_diff.Identical -> ()
  | Bwc_obs.Trace_diff.Diverges _ -> exit exit_gate

let trace_diff_cmd =
  let doc =
    "Compare two JSONL traces line by line and report the first divergence.  \
     Exits 0 when byte-identical, 3 with the divergent line quoted from both \
     sides otherwise -- the dynamic end of the determinism contract."
  in
  let file n doc = Arg.(required & pos n (some string) None & info [] ~docv:"FILE" ~doc) in
  Cmd.v (Cmd.info "trace-diff" ~doc)
    Term.(
      const trace_diff
      $ file 0 "Left trace (JSONL)."
      $ file 1 "Right trace (JSONL).")

let trace_analytics_cmd =
  let doc =
    "E16: causal trace analytics over the standard fault scenarios (clean, \
     faulty, crash-recovery).  Reports the fraction of convergence rounds \
     explained by the critical path and the per-kind byte budget, and gates \
     on the exact-sum invariant (non-query attribution = engine send \
     counter)."
  in
  let kinds_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "kinds-csv" ] ~docv:"FILE"
          ~doc:"Also write the per-(scenario, kind) attribution table as CSV.")
  in
  let module T = E.Trace_analytics in
  experiment "trace-analytics" ~full:false ~hosts:true ~doc
    Term.(
      const (fun kinds_csv ~seed ~full:_ ~csv ds ->
          T.run ~seed (Lazy.force ds)
          |> report T.print
               ~files:[ csv_out csv T.save_csv; csv_out kinds_csv T.save_kinds_csv ]
               ~gate:("GATE FAILED", T.gate))
      $ kinds_csv)

let main_cmd =
  let doc = "Bandwidth-constrained cluster search (ICDCS 2011 reproduction)." in
  Cmd.group
    (Cmd.info "bwcluster" ~version:"1.0.0" ~doc)
    [
      accuracy_cmd;
      relerr_cmd;
      tradeoff_cmd;
      treeness_cmd;
      scalability_cmd;
      embedding_cmd;
      oracle_cmd;
      overhead_cmd;
      routing_cmd;
      robustness_cmd;
      restart_cmd;
      overload_cmd;
      snapshot_cmd;
      restore_cmd;
      dynamic_cmd;
      trace_cmd;
      metrics_cmd;
      analyze_cmd;
      trace_diff_cmd;
      trace_analytics_cmd;
      gen_cmd;
      export_tree_cmd;
      inspect_cmd;
      query_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
