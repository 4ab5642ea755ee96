(** Dynamic membership: hosts joining and leaving a running system
    (requirement 5 of Sec. I, "members of each cluster should adaptively
    change as network condition changes").

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
  ?c:float ->
  ?n_cut:int ->
  ?class_count:int ->
  ?ensemble_size:int ->
  ?initial_members:int list ->
  ?detector:Detector.config ->
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  Bwc_dataset.Dataset.t ->
  t
(** [initial_members] defaults to all hosts of the dataset.
    [detector]/[metrics]/[trace] are threaded into the underlying
    {!Protocol.create} (and [metrics] into the ensemble build), so a
    long-running host such as [bwclusterd] observes the whole stack
    through one registry and one trace sink. *)

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
    system from already-restored layers.  Rebuilds the measured-metric
    index universe from the dataset and re-installs the eviction hook
    that keeps a maintained index valid under detector-driven repair.
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
val is_member : t -> int -> bool
val protocol : t -> Protocol.t
val ensemble : t -> Bwc_predtree.Ensemble.t
val classes : t -> Classes.t

val join : t -> int -> unit
(** Adds the host and restabilises the aggregation.  The host must be a
    point of the dataset that is not currently a member. *)

val leave : t -> int -> unit
(** Removes the host and restabilises.  Refuses ([Invalid_argument]) to
    remove the last member. *)

val apply : t -> Bwc_sim.Churn.event list -> unit
(** Applies a batch of joins/leaves, restabilising once at the end —
    events for hosts already in the requested state are ignored, so
    schedules generated independently of the current state are safe. *)

val apply_deferred : t -> Bwc_sim.Churn.event list -> int
(** Like {!apply} but {e without} restabilising: membership and the
    maintained index are updated by delta, and the aggregation protocol
    is left stale until the caller runs {!stabilize} (or budgets rounds
    itself via {!Protocol.refresh_topology} + {!Protocol.run_round}).
    Returns the number of events actually applied (no-ops are skipped
    exactly as in {!apply}).  This is the daemon's deferred path:
    cluster answers from the index stay membership-fresh while
    reconvergence proceeds in bounded background steps. *)

val run_scenario :
  t -> churn:Bwc_sim.Churn.t -> rounds:int -> on_round:(int -> t -> unit) -> unit
(** Drives [rounds] epochs: each epoch applies the churn events scheduled
    for it, restabilises, then calls [on_round epoch t] (e.g. to submit
    queries). *)

val query : ?at:int -> t -> k:int -> b:float -> Query.result
(** Submits at a uniformly random current member by default.  When the
    member list is empty (churn removed everyone), answers
    {!Query.no_members} instead of raising. *)

val index : t -> Find_cluster.Index.t
(** The maintained centralized index over the measured metric restricted
    to the current members.  Built on first use (O(n^3)); every
    subsequent membership event repairs it in O(n^2). *)

val query_centralized : t -> k:int -> b:float -> int list option
(** Algorithm 1 over the maintained index with the exact constraint
    [l = C / b] — the centralized baseline the dynamic experiments
    compare the decentralized protocol against, kept valid under churn
    without rebuilds. *)

val stabilize : t -> int
(** Re-runs background aggregation until quiescent; returns rounds run.
    Normally called internally. *)
