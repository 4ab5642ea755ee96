(** The decentralized clustering system (Sec. III-B).

    Every host participating in the prediction framework runs two
    background aggregation mechanisms over its anchor-tree neighborhood:

    - {b Algorithm 2} ([DynAggrNodeInfo]): for each neighbor [m], host [x]
      maintains [aggrNode[m]] — the [n_cut] hosts closest to [x] among
      everything reachable via [m];
    - {b Algorithm 3} ([DynAggrMaxCluster]): for each neighbor [m] and
      each distance class [l], host [x] maintains [aggrCRT[m][l]] — the
      maximum cluster size achievable in the clustering space of any host
      reachable via [m].  The per-class row for [x] itself is the best
      cluster [x] can build from its own aggregated neighborhood.

    Queries ({b Algorithm 4}, [ProcessQuery]) may be submitted to any
    host: a host answers from its own clustering space when its own CRT
    row allows, otherwise forwards towards a neighbor whose CRT column
    promises a large-enough cluster, never returning to the sender.

    The implementation runs on the round-based {!Bwc_sim.Engine}; each
    round every host consumes its inbox, updates its tables, and
    (re)propagates to neighbors when something changed, so a static
    network reaches quiescence and {!run_aggregation} detects it.

    Delivery is made reliable against an unreliable network
    ({!Bwc_sim.Fault}): every update carries a per-link sequence number,
    receivers acknowledge the highest sequence seen and discard
    duplicates and out-of-order copies (the merge is idempotent, which
    is asserted), and senders retransmit unacknowledged updates on a
    timeout.  The aggregation therefore converges to the same fixed
    point under message loss, duplication, reordering jitter and
    crash/restart windows as on a reliable network — it just takes more
    rounds and messages (tested; measured by the robustness
    experiment).  An unacknowledged update is resent every 3 rounds.
    Retransmission is bounded: after 16 fruitless tries the sender
    {e gives up} on the peer (counted under [protocol.give_up]) so
    quiescence never hinges on a host that is gone for good; any later
    sign of life from the peer revives the retired update.

    With a [detector] config the protocol additionally runs the
    {!Detector} failure detector over the anchor-tree edges (heartbeats
    fill silent links) and {e self-heals}: a confirmed-dead node is
    evicted from the ensemble ({!Bwc_predtree.Ensemble.evict_host},
    orphaned overlay children regraft to their grandparent), aggregate
    state about it is invalidated only at its ex-neighbors and along the
    regraft points' root paths (epoch-versioned links fence off in-flight
    state from before the repair), and the aggregation re-converges
    incrementally — no global rebuild, no full re-propagation.  Queries
    detour around {e suspected} (not yet confirmed) directions. *)

type t

val create :
  rng:Bwc_stats.Rng.t ->
  ?n_cut:int ->
  ?edge_delay:(src:int -> dst:int -> int) ->
  ?faults:Bwc_sim.Fault.t ->
  ?detector:Detector.config ->
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  classes:Classes.t ->
  Bwc_predtree.Ensemble.t ->
  t
(** [n_cut] (default 10) bounds the per-neighbor node-information payload
    — the decentralization knob of Sec. IV-B.  [edge_delay] gives overlay
    links heterogeneous (FIFO) delivery delays in rounds; the aggregation
    converges to the same tables regardless (tested), it just takes
    proportionally longer.  [faults] (default {!Bwc_sim.Fault.none})
    injects message loss, duplication, jitter, partitions and
    crash/restart windows.  An update stays unacknowledged 3 rounds
    before it is retransmitted, and after 16 fruitless retransmissions
    the sender gives up on the peer.  With a fault plan that never heals
    (a permanent crash or partition) and no [detector], the survivors
    give up and quiesce without the dead peer's state repaired; with a
    [detector] (off when omitted; see {!Detector.default_config}) the
    dead peer is detected, evicted and healed around.  The detector
    draws its (optional) jitter from a split of [rng]; omitting
    [detector] leaves the RNG stream — and therefore detector-less runs
    — untouched.

    [metrics] is the registry the protocol {e and} its engine write to
    ([protocol.retransmissions], [protocol.dup_suppressed],
    [protocol.stale_discarded], [protocol.give_up],
    [protocol.heartbeats], [protocol.epoch_discarded],
    [protocol.repairs], [protocol.regrafts], the [protocol.unacked]
    gauge, the [query.hops] histogram, [query.retries],
    [query.hits]/[query.misses], plus the engine's [engine.*] and the
    detector's [detector.*] series); a private registry is allocated
    when omitted.  Pass the same registry to {!Bwc_sim.Fault.create} and
    {!Bwc_predtree.Ensemble.build} to snapshot the whole stack at once.
    [trace] enables structured event emission — engine-level
    send/deliver/drop events plus protocol-level [Retransmit],
    [Query_hop], [Suspect], [Confirm_dead], [Regraft] and [Quiesce] —
    and is off when omitted. *)

val run_aggregation : ?max_rounds:int -> t -> int
(** Runs rounds until quiescent (returns the number of rounds) or until
    [max_rounds] (default [4 * n]). *)

val run_round : t -> bool
(** A single round; [true] while still active.  With a detector, the
    round also advances lease expiry and immediately repairs any nodes
    confirmed dead this round, and activity means: some node's state
    changed, updates await acks, or a detector lease is running out
    (heartbeat traffic alone does not count as activity). *)

val crash_host : t -> int -> unit
(** Silently kills a member host: it stops stepping, and traffic to and
    from it is purged/dropped.  Nothing else is told — with a detector
    the survivors find out through lease expiry; without one they give
    up on it after 16 retransmissions.  Emits a [Crash] trace event.
    Raises [Invalid_argument] for non-members. *)

val repair : t -> dead:int list -> unit
(** Manually evict the given (presumed dead) members and heal around
    them, exactly as detector-driven repair would: ensemble eviction with
    grandparent regrafts, link-epoch bump, invalidation of the dead
    nodes' state at their ex-neighbors, root-path dirty marking.
    Re-converge with further rounds.  Non-members in [dead] are ignored.
    This is the incremental alternative to
    {!Bwc_predtree.Ensemble.evict_host} + {!refresh_topology}. *)

val set_on_evict : t -> (int -> unit) -> unit
(** Registers an observer called with each member evicted by {!repair}
    (manual or detector-driven), after the ensemble and overlay have been
    healed.  Lets owners of derived per-membership structures — e.g. a
    maintained {!Find_cluster.Index} — apply the eviction as an O(n^2)
    delta instead of rebuilding.  The previous observer is replaced;
    [create] installs a no-op. *)

val detector : t -> Detector.t option
(** The failure detector, when [create] was given a config. *)

val query :
  ?policy:[ `Best_crt | `First ] ->
  ?hop_budget:int ->
  t -> at:int -> k:int -> cls:int -> Query.result
(** Algorithm 4: submit the query for [k] hosts of class [cls] at host
    [at].  The paper forwards to "any" neighbor whose CRT column promises
    a big-enough cluster; [`Best_crt] (default) picks the most promising
    direction, [`First] the first qualifying neighbor (the routing-policy
    ablation compares them).

    Robustness: a hop to a dead or partitioned neighbor falls back to the
    next qualifying neighbor; a hop over a lossy link is retried up to
    2 times before falling back; with a detector,
    directions the local failure detector suspects become last resorts
    (tried only when every healthy direction fails); [hop_budget]
    (default [n], unreachable on a simple tree path) caps the total
    number of forwardings.  A query submitted at a dead host is an
    immediate miss. *)

val query_bandwidth :
  ?policy:[ `Best_crt | `First ] ->
  ?hop_budget:int ->
  t -> at:int -> k:int -> b:float -> Query.result
(** Convenience: maps [b] to the cheapest class that guarantees it; a miss
    when no class covers [b]. *)

val crt_row : t -> int -> int -> int array
(** [crt_row t x v]: [x]'s CRT column for neighbor (or self) [v]; one
    entry per class.  Raises [Not_found] if [v] is neither [x] nor a
    neighbor of [x]. *)

(* bwclint: allow test-only-export -- reference oracle: the CRT promise test/test_core.ml and test/test_persist.ml check Algorithm 4's answers against *)
val max_reachable : t -> int -> cls:int -> int
(** The largest cluster size host [x] believes exists anywhere (its own
    row and every neighbor column). *)

val metrics : t -> Bwc_obs.Registry.t
(** The registry the protocol and its engine write to (the [?metrics]
    argument of {!create}, or the private registry).  Snapshot it with
    {!Bwc_obs.Registry.snapshot} to read every series at once. *)

val messages_sent : t -> int
val rounds_run : t -> int

val give_ups : t -> int
(** Updates retired unacknowledged after 16 fruitless retransmissions
    ([protocol.give_up]). *)

val heartbeats_sent : t -> int
(** Detector heartbeats sent over idle links ([protocol.heartbeats]). *)

val repairs_run : t -> int
(** Confirmed-dead nodes evicted and healed around
    ([protocol.repairs]). *)

val regrafts_applied : t -> int
(** Orphaned overlay children re-attached to their grandparent during
    repair ([protocol.regrafts]). *)

val current_round : t -> int
(** The engine's round clock (survives snapshot/restore, unlike
    {!rounds_run} which counts rounds stepped by this process). *)

(** {2 Persistence}

    The dump captures the durable per-node state only.  In-flight engine
    traffic is deliberately absent: a whole-system crash loses the
    network, and that is exactly the loss the seq/ACK + retransmission
    layer already recovers from — restored unacked out-entries resume
    their resend timers.  Neighbor lists and node infos are not dumped
    either; they are re-derived from the ensemble, which must be
    restored alongside (see {!Bwc_predtree.Ensemble.of_dump}).  Metrics
    counters restart from zero. *)

type out_dump = {
  o_peer : int;
  o_epoch : int;
  o_seq : int;
  o_prop_node : Node_info.t list;
  o_prop_crt : int array;
  o_sent_round : int;
  o_tries : int;
  o_acked : bool;
  o_gave_up : bool;
}

type node_dump = {
  nd_id : int;
  nd_active : bool;
      (** engine liveness — a crashed-but-not-yet-evicted member restores
          as crashed *)
  nd_dirty : bool;
  nd_own_row : int array;
  nd_aggr_node : (int * Node_info.t list) list;  (** ascending neighbor id *)
  nd_aggr_crt : (int * int array) list;
  nd_out : out_dump list;
  nd_seen_seq : (int * int) list;
  nd_link_epoch : (int * int) list;
  nd_last_sent : (int * int) list;
}

type dump = {
  d_n_cut : int;
  d_resend_timeout : int;
  d_max_retransmits : int;
  d_rounds : int;
  d_epoch : int;
  d_engine_round : int;
  d_engine_rng : int64;
  d_nodes : node_dump list;  (** ascending host id, members only *)
  d_detector : Detector.dump option;
}

val dump : t -> dump

val of_dump :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  classes:Classes.t ->
  Bwc_predtree.Ensemble.t ->
  dump ->
  t
(** Reconstructs a live protocol over the given (already restored)
    ensemble.  The engine restarts at the dumped round with the dumped
    RNG state, so a same-seed run resumed from a snapshot at quiescence
    is indistinguishable from one that never crashed.  Validates
    membership agreement with the ensemble, neighbor-keyed table
    integrity, arity of CRT rows and label vectors, clock/epoch bounds,
    and that the dumped retransmission pacing equals the constants the
    restored protocol runs under; raises [Invalid_argument] on any
    violation.  The restored engine runs fault-free with unit link
    delays.  The unacked
    count is recomputed from the out-entries, never trusted from the
    file. *)

val mark_all_dirty : t -> unit
(** Forces every host to recompute and repropagate — used after the
    underlying framework is refreshed (dynamic network conditions). *)

val refresh_topology : t -> unit
(** Re-reads membership, labels and anchor neighborhoods from the
    framework (after joins, leaves or a rebuild), clears stale
    aggregation state, and marks everything dirty.  Aggregation then
    reconverges with further rounds.  With a detector, all lease state
    is reset and the fresh edges are watched from the current round.
    Functions taking a host raise [Invalid_argument] for non-members. *)

val invalidate_topology : t -> unit
(** Marks the topology stale after the framework's membership moved.
    Every function that reads or changes node state ({!run_round},
    {!repair}, {!crash_host}, {!query}, {!query_bandwidth}, {!crt_row},
    {!max_reachable} and {!dump}) first runs {!refresh_topology}.
    {!mark_all_dirty} needs no refresh: the pending one marks every host
    dirty anyway.  The refresh is lazy, so a burst of membership changes
    costs one refresh, and none while nothing reads the protocol. *)

val quiescent : t -> bool
(** No stale topology, no node with state left to propagate, no update
    awaiting an acknowledgement and no failure-detector lease running
    out: further rounds would change nothing.  A protocol restored from
    a snapshot taken mid-convergence is not quiescent. *)
