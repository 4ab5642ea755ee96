(** Per-round experiment context: everything the three compared approaches
    need, built once per (dataset, seed) — one "round" in the paper's
    methodology corresponds to one context with a fresh random seed.

    - TREE-DECENTRAL: the full decentralized system (Algorithms 2-4 over
      the prediction framework);
    - TREE-CENTRAL: Algorithm 1 over the same framework's predicted
      distances, indexed on first use;
    - EUCL-CENTRAL: the adapted Aggarwal k-diameter algorithm over a
      Vivaldi 2-d embedding of the same measurements. *)

type t = {
  dataset : Bwc_dataset.Dataset.t;
  sys : Bwc_core.Dynamic.t;
  tree_index : Bwc_core.Find_cluster.Index.t Lazy.t;
  vivaldi : Bwc_vivaldi.Vivaldi.t;
  eucl_index : Bwc_euclid.Kdiam.Index.t;
}

val create :
  seed:int -> ?n_cut:int -> ?class_count:int -> Bwc_dataset.Dataset.t -> t

val c : t -> float

val tree_decentral : t -> Workload.query -> Bwc_core.Query.result
val tree_central : t -> Workload.query -> int list option
val eucl_central : t -> Workload.query -> int list option

val wrong_pairs : t -> b:float -> int list -> int
(** Number of pairs in the cluster whose real bandwidth is below [b]. *)

val pair_count : int list -> int
