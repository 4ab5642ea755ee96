(** The system facade: one call stands up the whole stack — prediction
    framework, aggregation protocol, centralized index — over a bandwidth
    dataset, and hosts keep joining and leaving it afterwards
    (requirement 5 of Sec. I, "members of each cluster should adaptively
    change as network condition changes").  The experiments, the
    examples, the CLI and [bwclusterd] all run on it.

    {[
      let ds = Bwc_dataset.Planetlab.hp_like ~seed:1 in
      let sys = Bwc_core.Dynamic.create ~seed:1 ds in
      match Bwc_core.Dynamic.query sys ~k:10 ~b:40.0 with
      | { cluster = Some hosts; hops; _ } -> (* use hosts *)
      | _ -> (* relax the constraints *)
    ]}

    A join inserts the host into every prediction tree of the ensemble
    (the same Gromov placement a bootstrap uses) and a leave splices it
    out (or rebuilds when other hosts anchor beneath it); after each batch
    of membership changes the aggregation protocols re-run to quiescence,
    so cluster routing tables always describe the current overlay.

    The system also keeps the centralized Algorithm-1 comparison alive
    under churn: a {!Bwc_core.Find_cluster.Index} over the measured metric
    (whose pair distances are fixed — only membership moves) is built
    lazily and then {e maintained by O(n^2) deltas} on every join, leave
    and detector-driven eviction, instead of being invalidated and
    rebuilt at O(n^3) per membership event.

    Churn schedules from {!Bwc_sim.Churn} drive whole scenarios. *)

type t

val create :
  ?seed:int ->
  ?n_cut:int ->
  ?class_count:int ->
  ?classes:Classes.t ->
  ?initial_members:int list ->
  ?aggregation_rounds:int ->
  Bwc_dataset.Dataset.t ->
  t
(** Builds the prediction framework over [initial_members] (default: all
    hosts of the dataset), creates the decentralized protocol and runs
    background aggregation to quiescence, or for at most
    [aggregation_rounds] rounds.  [class_count] (default 8) bandwidth
    classes are placed at percentiles of the dataset's bandwidth
    distribution; an explicit [classes] overrides both. *)

val assemble :
  dataset:Bwc_dataset.Dataset.t ->
  c:float ->
  fw:Bwc_predtree.Ensemble.t ->
  protocol:Protocol.t ->
  classes:Classes.t ->
  rng_state:int64 ->
  index:Find_cluster.Index.t option ->
  unit ->
  t
(** Snapshot restore only (see [Bwc_persist]): re-assembles a dynamic
    system from already-restored layers.  The index universe is [fw]'s
    measured space ({!Bwc_predtree.Ensemble.space}); the eviction hook
    that keeps a maintained index valid under detector-driven repair is
    re-installed.
    The trailing [unit] carries nothing; it is kept so existing callers
    still compile. *)

val dataset : t -> Bwc_dataset.Dataset.t
val c : t -> float

val rng_state : t -> int64
(** The submission/placement generator's state (see
    {!Bwc_stats.Rng.state}). *)

val index_opt : t -> Find_cluster.Index.t option
(** The maintained index if it has been forced, without forcing it. *)

val members : t -> int list
val member_count : t -> int
val protocol : t -> Protocol.t
val ensemble : t -> Bwc_predtree.Ensemble.t
val classes : t -> Classes.t

val apply_deferred : t -> Bwc_sim.Churn.event list -> int
(** Applies a batch of joins and leaves {e without} restabilising:
    membership and the maintained index are updated by delta, and the
    protocol's topology is marked stale ({!Protocol.invalidate_topology});
    its next round, query or dump refreshes it, and rounds
    ({!Protocol.run_round}, {!Protocol.run_aggregation}) reconverge it.
    Events for hosts already in the requested state are ignored, as is
    a leave of the last member, so schedules generated independently of
    the current state are safe.  Returns the number of events actually
    applied.  This is the daemon's deferred path: cluster answers from
    the index stay membership-fresh while reconvergence proceeds in
    bounded background steps. *)

val run_scenario :
  t -> churn:Bwc_sim.Churn.t -> rounds:int -> on_round:(int -> t -> unit) -> unit
(** Drives [rounds] epochs: each epoch applies the churn events scheduled
    for it, restabilises, then calls [on_round epoch t] (e.g. to submit
    queries). *)

val query : ?at:int -> t -> k:int -> b:float -> Query.result
(** Decentralized query (Algorithm 4).  Submitted at host [at] (default:
    a uniformly random current member, as in the paper's experiments).
    [b] is mapped to the cheapest bandwidth class that guarantees it.
    When the member list is empty (churn removed everyone), answers
    {!Query.no_members} instead of raising. *)

val verify_cluster : t -> b:float -> int list -> (int * int) list
(** The pairs of the cluster whose {e real} bandwidth is below [b] — the
    per-query ingredient of the WPR accuracy metric. *)

val find_feeder : t -> targets:int list -> (int * float) option
(** Node-search extension: the current member maximising its minimum
    predicted bandwidth to [targets] (which must be members), with that
    bandwidth. *)

val index : t -> Find_cluster.Index.t
(** The maintained centralized index over the measured metric restricted
    to the current members.  Built on first use (O(n^3)); every
    subsequent membership event repairs it in O(n^2). *)

val query_centralized : t -> k:int -> b:float -> int list option
(** Algorithm 1 over the maintained index with the exact constraint
    [l = C / b] — the centralized baseline the dynamic experiments
    compare the decentralized protocol against, kept valid under churn
    without rebuilds. *)
