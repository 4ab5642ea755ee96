module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset
module Clique = Bwc_core.Clique
module Find_cluster = Bwc_core.Find_cluster

type row = {
  k : int;
  queries : int;
  oracle_feasible : int;
  oracle_unknown : int;
  alg1_found : int;
  missed : int;
  invalid : int;
}

type output = {
  dataset : string;
  epsilon_avg : float;
  rows : row list;
}

let run ?(ks = [ 3; 5; 8; 12 ]) ?(queries_per_k = 30) ~seed dataset =
  let space = Dataset.metric dataset in
  (* harder constraints than the accuracy workload: the interesting
     disagreements appear near the top of the bandwidth distribution *)
  let lo, hi = Workload.bandwidth_range ~lo_pct:50.0 ~hi_pct:98.0 dataset in
  let epsilon_avg =
    Bwc_metric.Fourpoint.epsilon_avg ~samples:20_000 ~rng:(Rng.create seed) space
  in
  let rows =
    List.map
      (fun k ->
        let rng = Rng.create (seed + (31 * k)) in
        let oracle_feasible = ref 0 and oracle_unknown = ref 0 in
        let alg1_found = ref 0 and missed = ref 0 and invalid = ref 0 in
        for _ = 1 to queries_per_k do
          let b = Rng.uniform rng lo hi in
          let l = Bwc_metric.Bandwidth.to_distance b in
          let truth = Clique.exists_cluster space ~k ~l in
          (match truth with
          | Clique.Feasible _ -> incr oracle_feasible
          | Clique.Unknown -> incr oracle_unknown
          | Clique.Infeasible -> ());
          match Find_cluster.find space ~k ~l with
          | Some cluster ->
              incr alg1_found;
              if Bwc_metric.Space.diameter space cluster > l *. (1.0 +. 1e-9) then
                incr invalid
          | None -> (
              match truth with
              | Clique.Feasible _ -> incr missed
              | Clique.Infeasible | Clique.Unknown -> ())
        done;
        {
          k;
          queries = queries_per_k;
          oracle_feasible = !oracle_feasible;
          oracle_unknown = !oracle_unknown;
          alg1_found = !alg1_found;
          missed = !missed;
          invalid = !invalid;
        })
      (List.sort compare ks)
  in
  { dataset = dataset.Dataset.name; epsilon_avg; rows }

let columns =
  Report.
    [
      col "k" "k" (fun r -> i r.k);
      col "queries" "queries" (fun r -> i r.queries);
      col "oracle feasible" "oracle_feasible" (fun r -> i r.oracle_feasible);
      col "unknown" "oracle_unknown" (fun r -> i r.oracle_unknown);
      col "alg1 found" "alg1_found" (fun r -> i r.alg1_found);
      col "missed" "missed" (fun r -> i r.missed);
      col "invalid" "invalid" (fun r -> i r.invalid);
    ]

let print output =
  Report.print
    ~title:
      (Printf.sprintf
         "Ablation: Algorithm 1 on real data vs exact k-clique -- %s (eps_avg=%.4f)"
         output.dataset output.epsilon_avg)
    columns output.rows

let save_csv output = Report.save_csv columns output.rows
