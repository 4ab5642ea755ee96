(* Quickstart: stand up a bandwidth-constrained clustering system over a
   synthetic PlanetLab-like testbed and ask it for a cluster.

     dune exec examples/quickstart.exe *)

let () =
  (* A 120-host testbed whose pairwise bandwidth distribution mimics the
     paper's HP-PlanetLab dataset (20th-80th percentile: 15-75 Mbps). *)
  let dataset =
    Bwc_dataset.Planetlab.generate
      ~rng:(Bwc_stats.Rng.create 42)
      ~name:"quickstart-testbed"
      { Bwc_dataset.Planetlab.hp_target with n = 120 }
  in
  Format.printf "testbed: %d hosts@." (Bwc_dataset.Dataset.size dataset);

  (* One call builds the whole stack: the decentralized bandwidth
     prediction framework (prediction trees + anchor overlay), then runs
     the background aggregation protocols to quiescence. *)
  let sys = Bwc_core.Dynamic.create ~seed:7 dataset in
  let protocol = Bwc_core.Dynamic.protocol sys in
  Format.printf "aggregation: %d rounds, %d messages@."
    (Bwc_core.Protocol.rounds_run protocol)
    (Bwc_core.Protocol.messages_sent protocol);

  (* Ask any host for 10 nodes with pairwise bandwidth of at least
     40 Mbps.  The query routes itself through the overlay. *)
  let result = Bwc_core.Dynamic.query sys ~k:10 ~b:40.0 in
  (match result.Bwc_core.Query.cluster with
  | Some hosts ->
      Format.printf "cluster found after %d hops: {%s}@." result.Bwc_core.Query.hops
        (String.concat ", " (List.map string_of_int hosts));
      (* Check the answer against the ground-truth bandwidth matrix. *)
      let violations = Bwc_core.Dynamic.verify_cluster sys ~b:40.0 hosts in
      Format.printf "ground truth: %d of %d pairs below 40 Mbps@."
        (List.length violations)
        (List.length hosts * (List.length hosts - 1) / 2)
  | None -> Format.printf "no cluster found -- relax k or b@.");

  (* The centralized Algorithm 1 over the same predicted distances, for
     comparison. *)
  let predicted = Bwc_predtree.Ensemble.predicted_space (Bwc_core.Dynamic.ensemble sys) in
  let l = Bwc_metric.Bandwidth.to_distance 40.0 in
  match Bwc_core.Find_cluster.find predicted ~k:10 ~l with
  | Some hosts ->
      Format.printf "centralized algorithm agrees: {%s}@."
        (String.concat ", " (List.map string_of_int hosts))
  | None -> Format.printf "centralized algorithm found nothing@."
