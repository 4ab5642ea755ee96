(** High-level facade: one call to stand up the whole stack — prediction
    framework, aggregation protocol, centralized index — over a bandwidth
    dataset.  This is the public API the examples use.

    {[
      let ds = Bwc_dataset.Planetlab.hp_like ~seed:1 in
      let sys = Bwc_core.System.create ~seed:1 ds in
      match Bwc_core.System.query sys ~k:10 ~b:40.0 with
      | { cluster = Some hosts; hops; _ } -> (* use hosts *)
      | _ -> (* relax the constraints *)
    ]} *)

type t

val create :
  ?seed:int ->
  ?c:float ->
  ?n_cut:int ->
  ?class_count:int ->
  ?classes:Classes.t ->
  ?mode:Bwc_predtree.Framework.mode ->
  ?ensemble_size:int ->
  ?aggregation_rounds:int ->
  ?detector:Detector.config ->
  Bwc_dataset.Dataset.t ->
  t
(** Builds the prediction framework over the dataset, creates the
    decentralized protocol and runs background aggregation to
    quiescence.  [class_count] (default 8) bandwidth classes are placed
    at percentiles of the dataset's bandwidth distribution; an explicit
    [classes] overrides both.  [detector] (off when omitted) runs the
    failure detector over the overlay, exactly as {!Protocol.create}
    would. *)

val assemble :
  seed:int ->
  dataset:Bwc_dataset.Dataset.t ->
  c:float ->
  fw:Bwc_predtree.Ensemble.t ->
  protocol:Protocol.t ->
  classes:Classes.t ->
  rng_state:int64 ->
  index:Find_cluster.Index.t option ->
  t
(** Snapshot restore only (see [Bwc_persist]): re-assembles a system from
    already-restored layers without running any aggregation.  The callers
    are expected to have decoded each layer with its own validating
    [of_dump]. *)

val seed : t -> int
val rng_state : t -> int64
(** The submission-point generator's state (see {!Bwc_stats.Rng.state}). *)

val index_opt : t -> Find_cluster.Index.t option
(** The centralized index if it has been forced (by {!index} or a
    restore), without forcing it. *)

val dataset : t -> Bwc_dataset.Dataset.t
val framework : t -> Bwc_predtree.Ensemble.t
val protocol : t -> Protocol.t
val classes : t -> Classes.t
val c : t -> float
val size : t -> int

val query : ?at:int -> t -> k:int -> b:float -> Query.result
(** Decentralized query (Algorithm 4).  Submitted at host [at] (default: a
    uniformly random host, as in the paper's experiments).  [b] is mapped
    to the cheapest bandwidth class that guarantees it. *)

val query_centralized : t -> k:int -> b:float -> int list option
(** The centralized comparison (TREE-CENTRAL): Algorithm 1 over the full
    framework-predicted space, with the exact constraint [l = C / b]. *)

val index : t -> Find_cluster.Index.t
(** The centralized index over the cached framework-predicted space,
    built lazily on first use and shared by every subsequent centralized
    query.  A [System] has fixed membership, so no deltas ever apply
    here; the churn path ({!Dynamic.index}) is the one that maintains
    its index incrementally. *)

val real_bw : t -> int -> int -> float
val predicted_bw : t -> int -> int -> float

val verify_cluster : t -> b:float -> int list -> (int * int) list
(** The pairs of the cluster whose {e real} bandwidth is below [b] — the
    per-query ingredient of the WPR accuracy metric. *)

val find_feeder : t -> targets:int list -> (int * float) option
(** Node-search extension: host maximising its minimum real-predicted
    bandwidth to [targets], with that bandwidth. *)

val refresh : ?drift:float -> seed:int -> t -> t
(** Dynamic-network step: perturbs every pairwise bandwidth by up to
    [drift] (relative, default 0.1), rebuilds the prediction framework
    with the same insertion behaviour, re-runs aggregation, and returns
    the refreshed system.  Models requirement 5 of Sec. I (members adapt
    as conditions change). *)
