(* Content distribution (Sec. I and Sec. V): partition subscribers into
   bandwidth-constrained clusters, deploy the content to one
   representative per cluster, and let it spread within each cluster over
   the fast intra-cluster links.

   The example greedily peels clusters off the system (query, remove the
   returned hosts, repeat), then compares the estimated distribution time
   of this two-stage scheme against direct unicast from the origin.

     dune exec examples/cdn_distribution.exe *)

module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset

let content_mbit = 4000.0 (* a 500 MB release *)

(* Greedy partition: repeatedly find a b-constrained cluster among the
   remaining subscribers; hosts that fit no cluster become singletons. *)
let partition ~b ~max_cluster dataset =
  let rec peel remaining clusters =
    let m = Array.length remaining in
    if m < 2 then (clusters, Array.to_list remaining)
    else begin
      let sub = Dataset.subset dataset remaining in
      let sys =
        Bwc_core.Dynamic.create ~seed:(1000 + m) ~class_count:4 sub
      in
      let k = Stdlib.min max_cluster (Stdlib.max 2 (m / 4)) in
      match Bwc_core.Dynamic.query sys ~k ~b with
      | { Bwc_core.Query.cluster = Some local_hosts; _ } ->
          (* indices are relative to [sub]; map back *)
          let cluster = List.map (fun i -> remaining.(i)) local_hosts in
          let member = Hashtbl.create 16 in
          List.iter (fun h -> Hashtbl.replace member h ()) cluster;
          let rest =
            Array.of_list
              (List.filter
                 (fun h -> not (Hashtbl.mem member h))
                 (Array.to_list remaining))
          in
          peel rest (cluster :: clusters)
      | _ -> (clusters, Array.to_list remaining)
    end
  in
  peel (Array.init (Dataset.size dataset) (fun i -> i)) []

(* Distribution time estimates from the ground-truth matrix.  The origin
   is host 0.  Intra-cluster spread is a chain of unicasts over the
   slowest intra-cluster link (pessimistic for the CDN scheme). *)
let direct_time ds subscribers =
  List.fold_left
    (fun acc h -> if h = 0 then acc else acc +. (content_mbit /. Dataset.bw ds 0 h))
    0.0 subscribers

let two_stage_time ds clusters singletons =
  let cluster_time cluster =
    match cluster with
    | [] -> 0.0
    | rep :: rest ->
        let to_rep = content_mbit /. Dataset.bw ds 0 rep in
        let slowest =
          List.fold_left
            (fun acc h -> Float.max acc (content_mbit /. Dataset.bw ds rep h))
            0.0 rest
        in
        to_rep +. slowest
  in
  let cluster_part =
    List.fold_left (fun acc c -> Float.max acc (cluster_time c)) 0.0 clusters
  in
  (* Singletons still get direct unicast, in parallel with the clusters. *)
  let singleton_part =
    List.fold_left
      (fun acc h -> if h = 0 then acc else Float.max acc (content_mbit /. Dataset.bw ds 0 h))
      0.0 singletons
  in
  Float.max cluster_part singleton_part

let () =
  let dataset =
    Bwc_dataset.Planetlab.generate ~rng:(Rng.create 17) ~name:"cdn-subscribers"
      { Bwc_dataset.Planetlab.hp_target with n = 120 }
  in
  let n = Dataset.size dataset in
  Format.printf "CDN with %d subscribers, %.0f Mbit content@." n content_mbit;
  let clusters, singletons = partition ~b:35.0 ~max_cluster:20 dataset in
  Format.printf "partitioned into %d clusters (+%d singletons):@." (List.length clusters)
    (List.length singletons);
  List.iteri
    (fun i c -> Format.printf "  cluster %d: %d hosts@." (i + 1) (List.length c))
    clusters;
  let everyone = List.init n (fun i -> i) in
  let t_direct = direct_time dataset everyone in
  let t_two = two_stage_time dataset clusters singletons in
  Format.printf "@.estimated completion (sequential origin unicast): %8.1f s@." t_direct;
  Format.printf "estimated completion (cluster representatives)   : %8.1f s  (%.1fx faster)@."
    t_two (t_direct /. t_two)
