(** E12: robustness of the decentralized system under injected faults.

    For each (drop probability, crash rate) configuration the experiment
    rebuilds the {e same} ensemble and protocol (same seeds), runs the
    aggregation under a {!Bwc_sim.Fault} plan (message loss, duplication
    and reordering jitter plus randomly scheduled crash/restart windows),
    and compares against the fault-free baseline: did it converge, does
    it reach the identical CRT fixed point, how many extra rounds and
    messages did reliability cost, and how does the query recall rate
    move.  The CSV export is the machine-readable acceptance report. *)

type row = {
  drop : float;            (** per-message loss probability *)
  crash_rate : float;      (** per-host probability of one crash window *)
  crashes : int;           (** crash windows actually scheduled *)
  converged : bool;        (** quiescent before the round cap *)
  fixpoint_match : bool;   (** identical CRT tables to the fault-free run *)
  rounds : int;
  round_overhead : float;  (** rounds / fault-free rounds *)
  messages : int;
  message_overhead : float;(** messages / fault-free messages *)
  retries : int;           (** protocol retransmissions *)
  dup_suppressed : int;    (** duplicate updates discarded *)
  lost : int;              (** messages the fault plan dropped *)
  duplicated : int;        (** messages the fault plan duplicated *)
  delayed : int;           (** messages the fault plan jittered *)
  rr : float;              (** recall rate of the query workload *)
  rr_delta : float;        (** fault-free RR minus faulty RR *)
  query_retries : int;     (** hop retransmissions across the workload *)
}

type output = {
  dataset : string;
  n : int;
  duplicate : float;
  jitter : int;
  queries : int;
  clean_rounds : int;
  rr_clean : float;
  rows : row list;
}

val run :
  ?drops:float list ->
  ?crash_rates:float list ->
  ?queries:int ->
  seed:int ->
  Bwc_dataset.Dataset.t ->
  output
(** Defaults: drops [0; 0.1; 0.2; 0.3], crash rates [0; 0.15], 60
    queries.  Every faulty configuration also duplicates 10% of its
    messages and jitters them by up to 2 rounds; each system comes from
    {!build_system} with a round cap of 600. *)

val print : output -> unit
val save_csv : output -> string -> unit

val gate : output -> string list
(** Failure messages, empty when every row converged to the fault-free
    fixed point; each message names its row's drop and crash rates. *)

val build_system :
  seed:int ->
  metrics:Bwc_obs.Registry.t ->
  faults:Bwc_sim.Fault.t ->
  detector:Bwc_core.Detector.config option ->
  trace:Bwc_obs.Trace.t option ->
  max_rounds:int ->
  Bwc_dataset.Dataset.t ->
  Bwc_predtree.Ensemble.t * Bwc_core.Protocol.t * int
(** The system E12, E13 and E16 rebuild for every configuration: the
    ensemble from [seed + 1] and the protocol from [seed + 2], with
    [n_cut] 4 over five percentile classes, both writing to [metrics].
    Returns them with the rounds the aggregation ran, to quiescence or
    [max_rounds].  Only [faults] ({!Bwc_sim.Fault.none} for a
    fault-free run), [detector] and [trace] vary between scenarios. *)

val measure_rr :
  seed:int -> queries:int -> hosts:int array -> lo:float -> hi:float ->
  Bwc_core.Protocol.t -> float * int
(** Recall of [queries] seeded queries (k in 2..7, b uniform in
    [[lo, hi)]) submitted at random members of [hosts], and the hop
    retransmissions they took. *)

val pick_victims : rng:Bwc_stats.Rng.t -> Bwc_predtree.Ensemble.t -> int -> int list
(** [pick_victims ~rng ens v]: up to [v] pairwise non-adjacent, non-root
    members of the primary anchor overlay, so each crash is repaired
    locally. *)

(** {1 E13: crash recovery}

    Kills a set of pairwise non-adjacent hosts silently and compares two
    ways of getting back to a correct fixed point, starting from the
    {e same} converged system (same seeds):

    - {b incremental}: the failure detector suspects, confirms, evicts
      and heals ({!Bwc_core.Protocol} with a detector config) — orphans
      regraft to their grandparent and only the state around the wound is
      re-propagated;
    - {b full stabilize}: an oracle evicts the victims immediately
      ({!Bwc_predtree.Ensemble.evict_host}), then
      {!Bwc_core.Protocol.refresh_topology} rebuilds every slot and the
      whole aggregation re-propagates from scratch.

    Both arms must land on the identical overlay and CRT fixed point
    ([overlay_match] / [fixpoint_match]); the incremental arm should get
    there with measurably fewer repair messages ([msgs_saved]).  During
    the detection-and-repair window one query per round is sampled at
    live hosts ([rr_during]) to watch availability degrade and recover
    ([rr_after]).  [repair_msgs] is net of heartbeat traffic (reported
    separately as [heartbeats]): the oracle arm pays for no detection, so
    only repair propagation is compared like for like. *)

type recovery_row = {
  victims : int;           (** hosts actually crashed this row *)
  healed : bool;           (** all victims repaired and quiescent in time *)
  detect_rounds : int;     (** rounds from crash until the last repair ran *)
  reconverge_rounds : int; (** rounds from crash to quiescence *)
  full_rounds : int;       (** oracle arm's re-propagation rounds *)
  repair_msgs : int;       (** incremental messages, net of heartbeats *)
  heartbeats : int;        (** heartbeat messages over the same window *)
  full_msgs : int;         (** oracle arm's re-propagation messages *)
  msgs_saved : float;      (** 1 - repair_msgs / full_msgs *)
  fixpoint_match : bool;   (** identical member CRT tables across arms *)
  overlay_match : bool;    (** identical repaired anchor overlays *)
  rr_during : float;       (** recall of queries sampled during repair *)
  rr_after : float;        (** recall of the replayed workload after *)
  suspects : int;          (** detector suspicion transitions *)
  give_ups : int;          (** updates retired unacknowledged *)
  regrafts : int;          (** orphans re-attached during repair *)
}

type recovery_output = {
  dataset : string;
  n : int;
  queries : int;
  base_rounds : int;       (** fault-free convergence rounds *)
  rr_clean : float;        (** fault-free recall of the same workload *)
  rows : recovery_row list;
}

val recovery :
  ?victim_counts:int list ->
  ?queries:int ->
  seed:int ->
  Bwc_dataset.Dataset.t ->
  recovery_output
(** Defaults: victim counts [1; 2; 3], 60 queries.  Systems come from
    {!build_system} with a round cap of 400; the incremental arm runs
    {!Bwc_core.Detector.default_config}. *)

val print_recovery : recovery_output -> unit
val save_recovery_csv : recovery_output -> string -> unit

val recovery_gate : recovery_output -> string list
(** Failure messages, empty when every row healed and its repaired CRT
    tables and anchor overlay match full stabilization; each message
    names its row's victim count. *)

(** {1 E15: crash-consistent restart}

    Converges a system once, snapshots it ({!Bwc_persist.Snapshot}), and
    compares what a whole-system restart costs under five arms, all
    replaying the same seeded query workload {e immediately} at restart
    (query availability while reconvergence is pending) and then running
    the aggregation to a fixed point:

    - {b warm}: restore from the verified snapshot.  Expected: the
      restart workload already matches the converged recall, the
      aggregation quiesces in one round with (almost) no messages, and
      the CRT fixed point is identical to the reference.
    - {b cold}: the same build with aggregation suppressed — the state a
      node restarts in with no snapshot.  Its post-restart rounds and
      messages are the denominator of every speedup column.
    - {b truncated} / {b bit-flip} / {b stale-version}: the snapshot
      image is corrupted ({!Bwc_sim.Fault.corrupt_snapshot}) while the
      system is down; the restore must reject it with the right typed
      error ([rejected_as]) and degrade gracefully to the cold path.

    The acceptance claim is the warm row: [round_speedup] and
    [msg_speedup] at least 5x at n >= 64, with [fixpoint_match]. *)

type restart_row = {
  mode : string;           (** warm | cold | truncated | bit-flip | stale-version *)
  restore_ok : bool;       (** the snapshot verified and restored warm *)
  rejected_as : string;    (** typed {!Bwc_persist.Codec.error} class, or "-" *)
  rr_at_restart : float;   (** recall of the workload replayed at restart *)
  post_rounds : int;       (** aggregation rounds to the fixed point after restart *)
  post_msgs : int;         (** aggregation messages after restart *)
  round_speedup : float;   (** cold post_rounds / this arm's post_rounds *)
  msg_speedup : float;     (** cold post_msgs / this arm's post_msgs *)
  fixpoint_match : bool;   (** identical CRT tables to the reference system *)
}

type restart_output = {
  dataset : string;
  n : int;
  queries : int;
  snapshot_bytes : int;    (** size of the encoded snapshot image *)
  base_rounds : int;       (** rounds the reference took to converge *)
  rr_clean : float;        (** recall of the workload on the converged reference *)
  rows : restart_row list;
}

val restart : ?queries:int -> seed:int -> Bwc_dataset.Dataset.t -> restart_output
(** Defaults: 60 queries.  Systems run with n_cut 4 over 5 bandwidth
    classes and a round cap of 600. *)

val print_restart : restart_output -> unit
val save_restart_csv : restart_output -> string -> unit

val restart_gate : restart_output -> string list
(** Failure messages, empty when the warm arm restored and reached the
    reference fixed point, every corrupted arm was rejected, and from
    n = 64 up the warm arm needed at most a fifth of the cold arm's
    rounds and messages. *)

val restart_to_json : restart_output -> seed:int -> string
(** The machine-readable form CI archives: one object with the run
    parameters and one row per arm ({!Bwc_json.to_rows} layout). *)
