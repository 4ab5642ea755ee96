(** Hierarchical ISP-topology generator: a random edge-weighted tree of
    routers with hosts attached as leaves.

    Distances are path lengths in the tree, so the induced metric is a
    perfect tree metric by construction (Theorem 2.1); the rational
    transform turns it into a bandwidth matrix.  Compared to the
    access-link model this produces a richer internal structure (shared
    backbone paths), which is what makes decentralized aggregation and
    query routing non-trivial. *)

type params = {
  routers : int;        (** inner routers; at least 1 *)
  core_weight_lo : float;
  core_weight_hi : float;  (** router-router edge weights, log-uniform *)
  access_mu : float;
  access_sigma : float;    (** host access edges, log-normal *)
}

val default_params : params

val generate :
  rng:Bwc_stats.Rng.t -> ?params:params -> n:int -> name:string -> unit -> Dataset.t
(** [generate ~rng ~params ~n ~name ()] builds the topology, computes all
    pairwise host distances and returns bandwidths [C / d], with [C]
    {!Bwc_metric.Bandwidth.default_c}. *)

val distance_matrix :
  rng:Bwc_stats.Rng.t -> ?params:params -> n:int -> unit -> Bwc_metric.Dmatrix.t
(** The raw tree-metric distance matrix, before the bandwidth transform;
    exposed for tests that need a guaranteed tree metric. *)
