(** A cycle-driven P2P simulation engine in the PeerSim mould.

    Nodes run synchronised rounds.  Messages sent during round [r] are
    delivered at the start of round [r+1] — the classic gossip model the
    paper's aggregation protocols (Algorithms 2 and 3) assume.  Node step
    order within a round is randomised, inactive nodes neither step nor
    receive, and the engine reports both per-round activity and message
    totals so experiments can account for protocol overhead.

    An optional {!Fault} plan injects unreliable-network behaviour:
    message loss, duplication, jittered (reordering) delays, scripted
    link partitions, and node crash/restart windows.

    Observability: every engine owns (or shares, via [?metrics]) a
    {!Bwc_obs.Registry} holding [engine.msgs_sent],
    [engine.msgs_delivered], [engine.rounds], the [engine.in_flight]
    gauge and the cause-labelled [engine.drops{cause=...}] counters, and
    can stream typed events to a {!Bwc_obs.Trace} sink.  Both are
    clocked by the simulation round, never wall time, and neither path
    touches any RNG — instrumentation cannot perturb a run. *)

type drop_cause = Bwc_obs.Trace.drop_cause =
  | Fault_loss  (** lost by the fault plan's stochastic drop at send time *)
  | Partition  (** blocked by a scripted partition at send time *)
  | Dead_dst  (** destination inactive at delivery time *)
  | Purge
      (** discarded in flight by {!set_active} [false] or {!clear_in_flight} *)

type 'msg t

val create :
  ?faults:Fault.t ->
  ?edge_delay:(src:int -> dst:int -> int) ->
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  rng:Bwc_stats.Rng.t ->
  int ->
  'msg t
(** [create ~rng n] allocates [n] node slots, all initially active.  [edge_delay] gives each
    directed edge a fixed delivery delay in rounds (default: 1 round for
    every edge, the classic lockstep model).  A fixed per-edge delay
    keeps links FIFO; values below 1 are clamped to 1.  [faults]
    (default {!Fault.none}) is consulted on every send and at every
    round boundary; fault jitter {e does} reorder messages, so protocols
    running under a jittering plan must tolerate non-FIFO links.
    [metrics] shares a registry with the rest of the stack (a private
    one is allocated when omitted); [trace] enables structured event
    emission (off when omitted). *)

val round : 'msg t -> int
(** Rounds completed so far. *)

val faults : 'msg t -> Fault.t
(** The fault plan the engine was created with ({!Fault.none} when no
    plan was given). *)

val restore_round : 'msg t -> int -> unit
(** Snapshot restore only: fast-forwards the round clock of a freshly
    created engine so round-relative protocol state (send timestamps,
    lease clocks) stays meaningful.  Raises on negative rounds.

    Trace identity (message ids, Lamport clocks) deliberately restarts
    at zero: a restored run begins a fresh trace, and causal analysis
    never spans a restore boundary. *)

val rng_state : 'msg t -> int64
(** The step-order generator's state (see {!Bwc_stats.Rng.state}), so a
    snapshot can resume the exact permutation stream. *)

val metrics : 'msg t -> Bwc_obs.Registry.t
(** The registry holding the engine's counters (the [?metrics] argument
    of {!create}, or the engine's private registry). *)

val send :
  'msg t -> src:int -> dst:int -> kind:Bwc_obs.Trace.msg_kind -> bytes:int ->
  'msg -> unit
(** Enqueues for delivery next round.  The sender cannot observe the
    destination's liveness: the message is enqueued even when the
    destination is currently down, and dropped at {e delivery} time if
    the destination is down then (counted under [Dead_dst]).  The fault
    plan may lose, duplicate or further delay the message.

    [kind] and [bytes] label the traffic for trace attribution: every
    send mints a fresh per-run message id, bumps the sender's Lamport
    clock, and emits exactly one [Trace.Send] carrying id, kind, byte
    size and stamp (which the matching [Deliver]/[Drop] then cites) —
    the 1:1 Send-event-per-send invariant E16's exact-attribution check
    rests on.  Duplicated copies share one id.  Raises on negative
    [bytes]. *)

val fresh_msg_id : 'msg t -> int
(** Draws the next id from the per-run monotone message-id counter —
    for traffic that bypasses the in-flight queue (synchronous query
    hops) but must still be causally identifiable in the trace. *)

val set_active : 'msg t -> int -> bool -> unit
(** Deactivating a node drops its queued inbox and everything in flight
    towards it (a crash loses undelivered traffic, counted under
    [Purge]); traffic sent while it is down is delivered only if it is
    active again by delivery time. *)

val is_active : 'msg t -> int -> bool

val clear_in_flight : 'msg t -> unit
(** Drops every undelivered message (counted under [Purge]).  Used when
    the overlay is rebuilt and in-flight traffic belongs to a dead
    topology. *)

val run_round : 'msg t -> step:(int -> (int * 'msg) list -> bool) -> bool
(** Applies scripted crash/restart transitions, delivers every message
    whose delay has elapsed, then steps each active node in random order
    with its inbox (list of [(src, msg)], oldest first).  [step] returns
    whether the node's state changed; the round returns whether {e any}
    node changed, any message was delivered, or messages are still in
    flight. *)

val messages_sent : 'msg t -> int
(** [engine.msgs_sent]. *)
