module Dynamic = Bwc_core.Dynamic
module Index = Bwc_core.Find_cluster.Index
module Vivaldi = Bwc_vivaldi.Vivaldi
module Kdiam = Bwc_euclid.Kdiam

type t = {
  dataset : Bwc_dataset.Dataset.t;
  sys : Dynamic.t;
  tree_index : Index.t Lazy.t;
  vivaldi : Vivaldi.t;
  eucl_index : Kdiam.Index.t;
}

let create ~seed ?n_cut ?class_count dataset =
  let sys = Dynamic.create ~seed ?n_cut ?class_count dataset in
  let tree_index =
    lazy
      (Index.build
         (Bwc_metric.Space.cached
            (Bwc_predtree.Ensemble.predicted_space (Dynamic.ensemble sys))))
  in
  let rng = Bwc_stats.Rng.create (seed + 0x5eed) in
  let vivaldi = Vivaldi.embed ~rng (Bwc_dataset.Dataset.metric ~c:(Dynamic.c sys) dataset) in
  let eucl_index = Kdiam.Index.build (Vivaldi.coords vivaldi) in
  { dataset; sys; tree_index; vivaldi; eucl_index }

let c t = Dynamic.c t.sys

let tree_decentral t (q : Workload.query) =
  Dynamic.query ~at:q.Workload.at t.sys ~k:q.Workload.k ~b:q.Workload.b

let tree_central t (q : Workload.query) =
  let l = Bwc_metric.Bandwidth.to_distance ~c:(c t) q.Workload.b in
  Index.find (Lazy.force t.tree_index) ~k:q.Workload.k ~l

let eucl_central t (q : Workload.query) =
  let l = Bwc_metric.Bandwidth.to_distance ~c:(c t) q.Workload.b in
  Kdiam.Index.find t.eucl_index ~k:q.Workload.k ~l

let wrong_pairs t ~b cluster =
  List.length (Dynamic.verify_cluster t.sys ~b cluster)

let pair_count cluster =
  let n = List.length cluster in
  n * (n - 1) / 2
