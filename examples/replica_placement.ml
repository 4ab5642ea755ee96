(* P2P storage replica placement (Sec. V mentions PAST-style systems):
   replicas of an object must synchronise with each other constantly, so
   placing all r replicas inside a bandwidth-constrained cluster keeps
   maintenance cheap; the node-search extension then picks a writer-side
   ingest node with high bandwidth to every replica.

   The example places replicas for several objects, estimates steady-state
   synchronisation cost from the ground-truth matrix, and shows how the
   placement survives network drift by re-querying after conditions
   change.

     dune exec examples/replica_placement.exe *)

module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset

let replicas = 5
let sync_mbit = 80.0 (* anti-entropy round payload per replica pair *)

(* steady-state sync time: slowest pair dominates the anti-entropy round *)
let sync_time ds nodes =
  let worst = ref 0.0 in
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y ->
          if j > i then worst := Float.max !worst (sync_mbit /. Dataset.bw ds x y))
        nodes)
    nodes;
  !worst

let place sys label =
  match Bwc_core.Dynamic.query sys ~k:replicas ~b:45.0 with
  | { Bwc_core.Query.cluster = Some nodes; hops; _ } ->
      Format.printf "%s: replicas on {%s} (found after %d hops)@." label
        (String.concat ", " (List.map string_of_int nodes))
        hops;
      Some nodes
  | _ ->
      Format.printf "%s: no 45 Mbps cluster of %d@." label replicas;
      None

let () =
  let dataset =
    Bwc_dataset.Planetlab.generate ~rng:(Rng.create 41) ~name:"storage-peers"
      { Bwc_dataset.Planetlab.hp_target with n = 130 }
  in
  let sys = Bwc_core.Dynamic.create ~seed:9 dataset in
  match place sys "initial placement" with
  | None -> ()
  | Some nodes ->
      Format.printf "  anti-entropy round: %.1f s@." (sync_time dataset nodes);
      (match Bwc_core.Dynamic.find_feeder sys ~targets:nodes with
      | Some (ingest, bw) ->
          Format.printf "  ingest node: host %d (>= %.0f Mbps to every replica)@."
            ingest bw
      | None -> ());
      (* a naive placement for contrast: the r lowest host ids *)
      let naive = List.init replicas (fun i -> i) in
      Format.printf "  naive placement sync round: %.1f s (%.1fx slower)@."
        (sync_time dataset naive)
        (sync_time dataset naive /. sync_time dataset nodes);
      (* the network drifts; the refreshed system re-places if needed *)
      let drifted =
        Bwc_dataset.Noise.host_drift ~rng:(Rng.create 42) ~amplitude:2.0 dataset
      in
      let sys' = Bwc_core.Dynamic.create ~seed:9 drifted in
      Format.printf "@.after access-link drift:@.";
      Format.printf "  old placement sync round on new network: %.1f s@."
        (sync_time drifted nodes);
      (match place sys' "re-placement" with
      | Some nodes' ->
          Format.printf "  new placement sync round: %.1f s@." (sync_time drifted nodes')
      | None -> ())
