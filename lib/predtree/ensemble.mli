(** An ensemble of prediction trees with median aggregation.

    A single Gromov-product tree commits to each node placement based on a
    handful of measurements, so measurement noise produces a heavy tail of
    pairs embedded far too close together ("false close" pairs) — and a
    clustering algorithm then eagerly collects exactly those pairs.  The
    authors' prediction framework counters this with heuristics; we use
    the classic ensemble form: build a few independent trees (different
    insertion orders and bases) and predict with the {e median} of their
    distances.  Three trees already cut the rate of 2x-overestimated
    bandwidths by an order of magnitude (see the E8 ablation).

    Each host's state is one distance label {e per tree} — still constant
    per-host information, just a small constant factor more of it.  The
    anchor-tree overlay of the {e primary} (first) tree is the one the
    clustering protocols run on. *)

type t

val build :
  rng:Bwc_stats.Rng.t -> ?mode:Framework.mode -> ?size:int -> ?members:int list ->
  ?metrics:Bwc_obs.Registry.t -> Bwc_metric.Space.t -> t
(** [metrics] is shared by every tree; tree [i] charges its construction
    cost to [predtree.measurements{tree=i}], so per-tree counts stay
    distinct and {!measurements_total} still sums them. *)

val size : t -> int
(** Number of trees. *)

val hosts : t -> int
(** Size of the underlying space (the id range), not the member count. *)

val space : t -> Bwc_metric.Space.t
(** The measured universe the trees were built over. *)

val members : t -> int list
(** Current members, insertion order of the primary tree. *)

val member_count : t -> int
(** [List.length (members t)], in O(1). *)

val member_at : t -> int -> int
(** Element [i] of {!members}, without copying the list. *)

val is_member : t -> int -> bool

val add_host : rng:Bwc_stats.Rng.t -> t -> int -> unit
(** Joins the host into every tree of the ensemble; a tree that still
    holds the host's ghost revives it (see {!Framework.add_host}). *)

val evict_host : t -> int -> (int * int) list
(** The one removal path, for a graceful leave and a crash alike: evicts
    the host from every tree without a rebuild (see
    {!Framework.evict_host}); surviving labels stay bit-identical and
    orphaned overlay children regraft to their grandparent.  Returns the
    {e primary} overlay's [(child, new_parent)] regrafts — the repair
    the clustering protocols must re-aggregate over. *)

val primary : t -> Framework.t
(* bwclint: allow test-only-export -- reference oracle: the per-tree predictions test/test_predtree.ml checks the ensemble median against *)
val frameworks : t -> Framework.t array

val labels : t -> int -> Label.t array
(** One label per tree, tree-index aligned across hosts. *)

val label_dist : Label.t array -> Label.t array -> float
(** Median over tree-wise label distances.  Both arrays must have the
    same length (labels of two hosts from the same ensemble). *)

val predicted : t -> int -> int -> float

val predicted_space : t -> Bwc_metric.Space.t
(** The median predictor as a space over all [hosts] ids, materialised
    pair by pair: every host must be a member (a non-member has no label,
    and {!Framework.label} raises). *)

val anchor_neighbors : t -> int -> int list
(** Overlay neighborhood in the primary tree. *)

val measurements_total : t -> int
(** Summed over trees: the ensemble's full construction cost. *)

val relative_errors : ?c:float -> t -> float array
(** Per-pair relative bandwidth-prediction error of the median
    predictor. *)

(** {2 Persistence} *)

type dump = Framework.dump array

val dump : t -> dump

val of_dump : ?metrics:Bwc_obs.Registry.t -> Bwc_metric.Space.t -> dump -> t
(** Reconstructs every tree over [space] (tree [i] charges future
    maintenance to [predtree.measurements{tree=i}] in [metrics], as
    {!build} does) and validates that all trees agree on membership;
    raises [Invalid_argument] otherwise. *)
