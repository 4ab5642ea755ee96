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

let write_string contents path =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

(* [--csv]/[--json]: write when the option is given and say so *)
let maybe_write what path save =
  Option.iter
    (fun path ->
      write_with save path;
      Format.printf "%s written to %s@." what path)
    path

let maybe_csv csv save output = maybe_write "csv" csv (save output)

let dataset_arg =
  let doc =
    "Dataset: 'hp' (HP-PlanetLab-like, 190 hosts), 'umd' (UMD-PlanetLab-like, \
     317 hosts), 'hp-small'/'umd-small' (120-host variants for quick runs), or \
     a path to a CSV bandwidth matrix."
  in
  Arg.(value & opt string "hp-small" & info [ "dataset" ] ~docv:"NAME" ~doc)

let load_dataset ~seed name =
  match Bwc_dataset.Planetlab.named ~seed name with
  | Some ds -> ds
  | None -> (
      try Bwc_dataset.Dataset.load_csv ~name:(Filename.basename name) name
      with Sys_error msg ->
        Format.eprintf "bwcluster: cannot read dataset: %s@." msg;
        exit exit_io)

(* [--hosts N]: values below 2 are rejected while parsing, so every
   command gets Cmdliner's usage error (exit 124) *)
let hosts_arg =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok h when h < 2 -> Error (`Msg "must be at least 2")
    | r -> r
  in
  Arg.(
    value
    & opt (some (conv (parse, Format.pp_print_int))) None
    & info [ "hosts" ] ~docv:"N"
        ~doc:"Restrict the dataset to a random N-host subset, N >= 2 (quick runs).")

let subset_hosts ~seed hosts ds =
  match hosts with
  | Some h when h < Bwc_dataset.Dataset.size ds ->
      Bwc_dataset.Dataset.random_subset ds ~rng:(Bwc_stats.Rng.create seed) h
  | _ -> ds

(* ----- accuracy (E1) ----- *)

let accuracy seed full dataset csv =
  let ds = load_dataset ~seed dataset in
  let rounds, queries = if full then (10, 1000) else (3, 250) in
  let out = Bwc_experiments.Accuracy.run ~rounds ~queries_per_round:queries ~seed ds in
  Bwc_experiments.Accuracy.print out;
  maybe_csv csv Bwc_experiments.Accuracy.save_csv out

let accuracy_cmd =
  let doc = "Fig. 3(a,c): WPR vs bandwidth constraint for the three approaches." in
  Cmd.v
    (Cmd.info "accuracy" ~doc)
    Term.(const accuracy $ seed_arg $ full_arg $ dataset_arg $ csv_arg)

(* ----- relative error CDF (E2) ----- *)

let relerr seed full dataset csv =
  let ds = load_dataset ~seed dataset in
  let rounds = if full then 10 else 3 in
  let out = Bwc_experiments.Relerr.run ~rounds ~seed ds in
  Bwc_experiments.Relerr.print ~resolution:10 out;
  Format.printf "median gap (eucl - tree): %.4f@." (Bwc_experiments.Relerr.median_gap out);
  maybe_csv csv (fun o p -> Bwc_experiments.Relerr.save_csv o p) out

let relerr_cmd =
  let doc = "Fig. 3(b,d): CDF of relative bandwidth-prediction errors." in
  Cmd.v (Cmd.info "relerr" ~doc)
    Term.(const relerr $ seed_arg $ full_arg $ dataset_arg $ csv_arg)

(* ----- tradeoff (E3 + E7) ----- *)

let tradeoff seed full dataset ablate csv =
  let ds = load_dataset ~seed dataset in
  let rounds, per_k = if full then (20, 5) else (4, 4) in
  if ablate then begin
    let rows = Bwc_experiments.Tradeoff.ncut_ablation ~rounds ~per_k ~seed ds in
    Bwc_experiments.Tradeoff.print_ablation ~dataset:ds.Bwc_dataset.Dataset.name rows
  end
  else begin
    let out = Bwc_experiments.Tradeoff.run ~rounds ~per_k ~seed ds in
    Bwc_experiments.Tradeoff.print out;
    maybe_csv csv Bwc_experiments.Tradeoff.save_csv out
  end

let tradeoff_cmd =
  let doc = "Fig. 4: return rate vs k, centralized vs decentralized." in
  let ablate =
    Arg.(value & flag & info [ "ablate-ncut" ] ~doc:"Sweep n_cut instead (E7 ablation).")
  in
  Cmd.v
    (Cmd.info "tradeoff" ~doc)
    Term.(const tradeoff $ seed_arg $ full_arg $ dataset_arg $ ablate $ csv_arg)

(* ----- treeness (E4) ----- *)

let treeness seed full csv =
  let rounds, queries = if full then (10, 2000) else (2, 300) in
  let out =
    Bwc_experiments.Treeness.run ~n:100 ~rounds ~queries_per_round:queries ~seed ()
  in
  Bwc_experiments.Treeness.print out;
  maybe_csv csv Bwc_experiments.Treeness.save_csv out

let treeness_cmd =
  let doc = "Fig. 5: effect of dataset treeness (epsilon) on WPR." in
  Cmd.v (Cmd.info "treeness" ~doc) Term.(const treeness $ seed_arg $ full_arg $ csv_arg)

(* ----- scalability (E5) ----- *)

let scalability seed full dataset churn json csv =
  if churn then begin
    let sizes = if full then [ 64; 128; 256; 384; 1024 ] else [ 64; 128; 256 ] in
    let rows =
      Bwc_experiments.Scalability.churn_sweep ~sizes
        ~events_per_size:(if full then 32 else 16)
        ~seed ()
    in
    Bwc_experiments.Scalability.print_churn rows;
    maybe_write "json" json
      (write_string (Bwc_experiments.Scalability.churn_to_json rows ~seed));
    let diverged = Bwc_experiments.Scalability.churn_divergence rows in
    if diverged > 0 then begin
      Format.eprintf "churn sweep: %d divergences or failed witnesses@." diverged;
      exit exit_gate
    end
  end
  else begin
    let ds = load_dataset ~seed dataset in
    let sizes, subsets, queries, rounds =
      if full then ([ 50; 100; 150; 200; 250; 300 ], 10, 1000, 10)
      else ([ 40; 80; 120 ], 2, 80, 1)
    in
    let n = Bwc_dataset.Dataset.size ds in
    let sizes = List.filter (fun s -> s <= n) sizes in
    let out =
      Bwc_experiments.Scalability.run ~sizes ~subsets_per_size:subsets
        ~queries_per_subset:queries ~rounds ~seed ds
    in
    Bwc_experiments.Scalability.print out;
    maybe_csv csv Bwc_experiments.Scalability.save_csv out
  end

let scalability_cmd =
  let doc = "Fig. 6: mean query routing hops vs system size." in
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
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"With $(b,--churn): also write the sweep as JSON (BENCH_index.json schema).")
  in
  Cmd.v
    (Cmd.info "scalability" ~doc)
    Term.(const scalability $ seed_arg $ full_arg $ dataset_arg $ churn $ json $ csv_arg)

(* ----- embedding ablation (E8) ----- *)

let embedding seed full dataset =
  let ds = load_dataset ~seed dataset in
  let rounds = if full then 5 else 2 in
  let rows = Bwc_experiments.Embedding.run ~rounds ~seed ds in
  Bwc_experiments.Embedding.print ~dataset:ds.Bwc_dataset.Dataset.name rows

let embedding_cmd =
  let doc = "Ablation: embedding error vs construction mode and ensemble size." in
  Cmd.v
    (Cmd.info "embedding" ~doc)
    Term.(const embedding $ seed_arg $ full_arg $ dataset_arg)

(* ----- oracle ablation (E9) ----- *)

let oracle seed full dataset csv =
  let ds = load_dataset ~seed dataset in
  let queries = if full then 100 else 30 in
  let out = Bwc_experiments.Oracle.run ~queries_per_k:queries ~seed ds in
  Bwc_experiments.Oracle.print out;
  maybe_csv csv Bwc_experiments.Oracle.save_csv out

let oracle_cmd =
  let doc = "Ablation: Algorithm 1 on real data vs the exact k-clique oracle." in
  Cmd.v (Cmd.info "oracle" ~doc)
    Term.(const oracle $ seed_arg $ full_arg $ dataset_arg $ csv_arg)

(* ----- overhead (E10) ----- *)

let overhead seed full dataset csv =
  let ds = load_dataset ~seed dataset in
  let n = Bwc_dataset.Dataset.size ds in
  let sizes =
    List.filter (fun s -> s <= n)
      (if full then [ 50; 100; 150; 200; 250; 300 ] else [ 40; 80; 120 ])
  in
  let out = Bwc_experiments.Overhead.run ~sizes ~repeats:(if full then 5 else 2) ~seed ds in
  Bwc_experiments.Overhead.print out;
  maybe_csv csv Bwc_experiments.Overhead.save_csv out

let overhead_cmd =
  let doc = "Background protocol overhead (measurements, messages) vs system size." in
  Cmd.v (Cmd.info "overhead" ~doc)
    Term.(const overhead $ seed_arg $ full_arg $ dataset_arg $ csv_arg)

(* ----- routing-policy ablation (E11) ----- *)

let routing seed full dataset csv =
  let ds = load_dataset ~seed dataset in
  let rounds, queries = if full then (5, 200) else (2, 60) in
  let out = Bwc_experiments.Routing.run ~rounds ~queries_per_k:queries ~seed ds in
  Bwc_experiments.Routing.print out;
  maybe_csv csv Bwc_experiments.Routing.save_csv out

let routing_cmd =
  let doc = "Ablation: forwarding-policy comparison (best-CRT vs first neighbor)." in
  Cmd.v (Cmd.info "routing" ~doc)
    Term.(const routing $ seed_arg $ full_arg $ dataset_arg $ csv_arg)

(* ----- robustness under faults (E12) ----- *)

let robustness seed full dataset hosts recover csv =
  let ds = subset_hosts ~seed hosts (load_dataset ~seed dataset) in
  if recover then begin
    let victim_counts, queries =
      if full then ([ 1; 2; 3; 4 ], 200) else ([ 1; 2 ], 60)
    in
    let out = Bwc_experiments.Robustness.recovery ~victim_counts ~queries ~seed ds in
    Bwc_experiments.Robustness.print_recovery out;
    maybe_csv csv Bwc_experiments.Robustness.save_recovery_csv out
  end
  else begin
    let drops, crash_rates, queries =
      if full then ([ 0.0; 0.05; 0.1; 0.2; 0.3 ], [ 0.0; 0.1; 0.2 ], 200)
      else ([ 0.0; 0.1; 0.2 ], [ 0.0; 0.15 ], 60)
    in
    let out = Bwc_experiments.Robustness.run ~drops ~crash_rates ~queries ~seed ds in
    Bwc_experiments.Robustness.print out;
    maybe_csv csv Bwc_experiments.Robustness.save_csv out
  end

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
  Cmd.v
    (Cmd.info "robustness" ~doc)
    Term.(
      const robustness $ seed_arg $ full_arg $ dataset_arg $ hosts_arg $ recover
      $ csv_arg)

(* ----- crash-consistent restart (E15) ----- *)

let restart seed full dataset hosts json csv =
  let ds = subset_hosts ~seed hosts (load_dataset ~seed dataset) in
  let queries = if full then 200 else 60 in
  let out = Bwc_experiments.Robustness.restart ~queries ~seed ds in
  Bwc_experiments.Robustness.print_restart out;
  maybe_csv csv Bwc_experiments.Robustness.save_restart_csv out;
  maybe_write "json" json
    (write_string (Bwc_experiments.Robustness.restart_to_json out ~seed));
  (* acceptance gate: the warm restore must verify and land on the
     reference fixed point, every corrupted image must be rejected, and
     at experiment scale the restart must actually be cheap *)
  let module R = Bwc_experiments.Robustness in
  let failures =
    List.concat_map
      (fun (r : R.restart_row) ->
        match r.R.mode with
        | "warm" ->
            (if r.R.restore_ok then [] else [ "warm restore was rejected" ])
            @ (if r.R.fixpoint_match then []
               else [ "warm restore missed the reference fixed point" ])
            @ (if out.R.n < 64 then []
               else if r.R.round_speedup < 5.0 then
                 [
                   Printf.sprintf "warm round speedup %.2f < 5 at n=%d"
                     r.R.round_speedup out.R.n;
                 ]
               else if r.R.msg_speedup < 5.0 then
                 [
                   Printf.sprintf "warm message speedup %.2f < 5 at n=%d"
                     r.R.msg_speedup out.R.n;
                 ]
               else [])
        | "cold" -> []
        | mode ->
            if r.R.restore_ok then [ mode ^ " snapshot was not rejected" ]
            else [])
      out.R.rows
  in
  if failures <> [] then begin
    List.iter (fun m -> Format.eprintf "restart gate: %s@." m) failures;
    exit exit_gate
  end

let restart_cmd =
  let doc =
    "E15: whole-system crash and restart.  Warm restore from a verified \
     snapshot vs cold reconvergence, plus corrupted-snapshot arms \
     (truncation, bit flips, stale format version) that must degrade \
     gracefully.  Exits 3 when the acceptance gate fails."
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the result as JSON.")
  in
  Cmd.v (Cmd.info "restart" ~doc)
    Term.(
      const restart $ seed_arg $ full_arg $ dataset_arg $ hosts_arg $ json
      $ csv_arg)

(* ----- overload (E17) ----- *)

let overload seed full dataset hosts json csv =
  let ds = subset_hosts ~seed hosts (load_dataset ~seed dataset) in
  let ds =
    (* the sweep runs 8 daemon instances (4 loads x 2 replay runs); keep
       the default system small enough that the arm cost is the scripted
       load, not index construction *)
    match hosts with
    | Some _ -> ds
    | None ->
        let cap = if full then 96 else 48 in
        if Bwc_dataset.Dataset.size ds > cap then
          Bwc_dataset.Dataset.random_subset ds
            ~rng:(Bwc_stats.Rng.create seed)
            cap
        else ds
  in
  let ticks = if full then 600 else 200 in
  let out = Bwc_experiments.Overload.run ~ticks ~seed ds in
  Bwc_experiments.Overload.print out;
  maybe_csv csv Bwc_experiments.Overload.save_csv out;
  maybe_write "json" json (write_string (Bwc_experiments.Overload.to_json out));
  match Bwc_experiments.Overload.gate out with
  | [] -> ()
  | failures ->
      List.iter (fun m -> Format.eprintf "overload gate: %s@." m) failures;
      exit exit_gate

let overload_cmd =
  let doc =
    "E17: the daemon reactor under an offered-load sweep.  Goodput must \
     plateau at service capacity instead of collapsing, every request must \
     resolve to exactly one typed response (answer, shed, timeout, or \
     rejection — never a silent drop), degraded answers must carry an \
     explicit staleness bound, and same-seed replays must be \
     byte-identical.  Exits 3 when the acceptance gate fails."
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the result as JSON.")
  in
  Cmd.v (Cmd.info "overload" ~doc)
    Term.(
      const overload $ seed_arg $ full_arg $ dataset_arg $ hosts_arg $ json
      $ csv_arg)

(* ----- snapshot / restore ----- *)

let snapshot seed dataset hosts output =
  let ds = subset_hosts ~seed hosts (load_dataset ~seed dataset) in
  let sys = Bwc_core.System.create ~seed ds in
  let image = Bwc_persist.Snapshot.encode (`System sys) in
  write_with (fun path -> Bwc_persist.Codec.write_file path image) output;
  Format.printf "wrote %s: %d bytes, %d hosts, converged in %d rounds@." output
    (String.length image) (Bwc_core.System.size sys)
    (Bwc_core.Protocol.rounds_run (Bwc_core.System.protocol sys))

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
  (* re-snapshot before the proving query: the query draws a submission
     point from the system RNG, and the restored image must stay
     byte-identical to what was on disk *)
  let resnap source =
    match resnapshot with
    | Some path ->
        write_with
          (fun path ->
            Bwc_persist.Codec.write_file path (Bwc_persist.Snapshot.encode source))
          path;
        Format.printf "re-snapshot written to %s@." path
    | None -> ()
  in
  let prove_system ~warm sys =
    Format.printf "%s: %d hosts live at round %d@."
      (if warm then "restored warm" else "cold start")
      (Bwc_core.System.size sys)
      (Bwc_core.Protocol.current_round (Bwc_core.System.protocol sys));
    resnap (`System sys);
    Format.printf "query: %a@." Bwc_core.Query.pp_result
      (Bwc_core.System.query sys ~k ~b)
  in
  match Bwc_persist.Snapshot.decode bytes with
  | Ok (Bwc_persist.Snapshot.Restored_system sys) -> prove_system ~warm:true sys
  | Ok (Bwc_persist.Snapshot.Restored_dynamic dyn) ->
      Format.printf "restored warm: %d members live@."
        (Bwc_core.Dynamic.member_count dyn);
      resnap (`Dynamic dyn);
      Format.printf "query: %a@." Bwc_core.Query.pp_result
        (Bwc_core.Dynamic.query dyn ~k ~b)
  | Error e ->
      Format.eprintf "bwcluster: persist.restore_rejected: %s@."
        (Bwc_persist.Codec.error_to_string e);
      if not cold_fallback then exit exit_snapshot_rejected;
      Format.printf "falling back to cold reconvergence over --dataset %s@."
        dataset;
      prove_system ~warm:false
        (Bwc_core.System.create ~seed
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
    Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc:"Proving-query cluster size.")
  in
  let b =
    Arg.(
      value
      & opt float 40.0
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
    Arg.(value & opt int 8 & info [ "epochs" ] ~docv:"N" ~doc:"Churn epochs to run.")
  in
  Cmd.v (Cmd.info "dynamic" ~doc) Term.(const dynamic $ seed_arg $ dataset_arg $ epochs)

(* ----- dataset generation ----- *)

let gen seed dataset output =
  let ds = load_dataset ~seed dataset in
  write_with (Bwc_dataset.Dataset.save_csv ds) output;
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
  let sys = Bwc_core.System.create ~seed ds in
  let fw = Bwc_predtree.Ensemble.primary (Bwc_core.System.framework sys) in
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
  let sys = Bwc_core.System.create ~seed ds in
  Format.printf "system of %d hosts up (aggregation: %d rounds, %d messages)@."
    (Bwc_core.System.size sys)
    (Bwc_core.Protocol.rounds_run (Bwc_core.System.protocol sys))
    (Bwc_core.Protocol.messages_sent (Bwc_core.System.protocol sys));
  let result = Bwc_core.System.query sys ~k ~b in
  Format.printf "decentralized: %a@." Bwc_core.Query.pp_result result;
  (match result.Bwc_core.Query.cluster with
  | Some cluster ->
      let bad = Bwc_core.System.verify_cluster sys ~b cluster in
      Format.printf "real-bandwidth violations: %d of %d pairs@." (List.length bad)
        (List.length cluster * (List.length cluster - 1) / 2)
  | None -> ());
  match Bwc_core.System.query_centralized sys ~k ~b with
  | Some cluster ->
      Format.printf "centralized:   found {%s}@."
        (String.concat ", " (List.map string_of_int cluster))
  | None -> Format.printf "centralized:   not found@."

let query_cmd =
  let doc = "Stand up a system and run one bandwidth-constrained cluster query." in
  let k =
    Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc:"Cluster size constraint.")
  in
  let b =
    Arg.(
      value
      & opt float 40.0
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
  if drop < 0.0 || drop > 1.0 || duplicate < 0.0 || duplicate > 1.0 then begin
    Format.eprintf "bwcluster: --drop and --duplicate must be in [0,1]@.";
    exit Cmdliner.Cmd.Exit.cli_error
  end;
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
  Arg.(value & opt float 0.1
       & info [ "drop" ] ~docv:"P" ~doc:"Per-message loss probability.")

let duplicate_arg =
  Arg.(value & opt float 0.05
       & info [ "duplicate" ] ~docv:"P" ~doc:"Per-message duplication probability.")

let jitter_arg =
  Arg.(value & opt int 1
       & info [ "jitter" ] ~docv:"R" ~doc:"Maximum extra delivery delay in rounds.")

let queries_arg =
  Arg.(value & opt int 20
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
          try
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
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

let trace_analytics seed dataset hosts kinds_csv csv =
  let ds = subset_hosts ~seed hosts (load_dataset ~seed dataset) in
  let out = Bwc_experiments.Trace_analytics.run ~seed ds in
  Bwc_experiments.Trace_analytics.print out;
  maybe_csv csv Bwc_experiments.Trace_analytics.save_csv out;
  maybe_csv kinds_csv Bwc_experiments.Trace_analytics.save_kinds_csv out;
  if
    not
      (List.for_all
         (fun r -> r.Bwc_experiments.Trace_analytics.send_sum_matches)
         out.Bwc_experiments.Trace_analytics.rows)
  then begin
    Format.eprintf
      "GATE FAILED: per-kind send attribution does not sum to the engine \
       counter@.";
    exit exit_gate
  end

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
  Cmd.v
    (Cmd.info "trace-analytics" ~doc)
    Term.(
      const trace_analytics $ seed_arg $ dataset_arg $ hosts_arg $ kinds_csv
      $ csv_arg)

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
