(** The deterministic daemon core: a pure state machine over injected
    time and parsed protocol lines.

    The reactor never reads the wall clock, never touches a file or a
    socket, and draws randomness only from an explicitly seeded
    {!Bwc_stats.Rng}: the same script of [(tick, conn, line)] inputs
    yields a byte-identical response stream and trace.  Real time and
    Unix sockets exist only in [bin/bwclusterd.ml], which maps them
    onto this interface; tests and experiment E17 drive it through the
    deterministic in-memory {!Script} transport.

    A tick performs, in order: token-bucket refill; overdue ingest
    retries; budgeted queue work in class-priority order (churn up to
    [churn_share], then queries — deadline-checked at dequeue — then
    measurement gossip); budgeted stabilization (at most
    [stabilize_budget] protocol rounds); degraded-mode transitions; the
    stalled-convergence watchdog; and snapshot scheduling.

    While the aggregation is stale, queries are served from the last
    consistent {!Bwc_core.Find_cluster.Index} — kept membership-fresh
    by {!Bwc_core.Dynamic.apply_deferred} deltas — with an explicit
    [staleness] bound in the response, instead of blocking on
    reconvergence.  Every refused or expired request gets a typed
    response (SHED / TIMEOUT / REJECTED); nothing is dropped silently. *)

type config = {
  admission : Admission.config;
  work_budget : int;      (** queue items processed per tick *)
  churn_share : int;      (** churn items that may consume budget before
                              queries get the rest (anti-starvation) *)
  stabilize_budget : int; (** protocol rounds per tick while stale *)
  default_deadline : int; (** query deadline (ticks) when none given *)
  degrade_backlog : int;  (** backlog that flips to degraded mode *)
  stall_after : int;      (** stale ticks before the watchdog fires *)
  meas_refresh : int;     (** accepted samples per forced repropagation *)
  ingest_fail : float;    (** injected transient ingest failure rate
                              (deterministic, from [seed]) *)
  retry_base : int;       (** backoff base: [base * 2^(attempt-1)], at
                              most 16 ticks *)
  retry_jitter : int;     (** max seeded jitter added to each backoff *)
  max_attempts : int;     (** attempts before a typed REJECTED *)
  snapshot_every : int option;  (** periodic snapshot cadence (ticks) *)
  seed : int;             (** reactor-local rng (jitter, failure draws) *)
}

val default_config : config

type mode = Normal | Degraded | Draining

val mode_name : mode -> string

type t

val create :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  config ->
  Bwc_core.Dynamic.t ->
  t
(** Wraps a running system.  Forces the maintained index once so the
    first degraded answer never pays the initial O(n^3) build inside a
    tick.  A system restored mid-convergence (its protocol not
    {!Bwc_core.Protocol.quiescent}) starts dirty, so ticks keep running
    rounds until it has converged.  With [?metrics]: [daemon.admitted{class}],
    [daemon.shed{class,reason}], [daemon.answers{served}],
    [daemon.timeouts], [daemon.rejected{class}], [daemon.retries{class}],
    [daemon.watchdog_fires], [daemon.degraded_entries], [daemon.drains],
    [daemon.parse_errors] counters, [daemon.queue_depth{class}],
    [daemon.staleness], [daemon.backlog] gauges and a
    [daemon.latency_ticks{class}] histogram.  With [?trace]: the
    [Daemon_*] events of {!Bwc_obs.Trace.event}. *)

type output = { conn : int; response : Wire.response }

val handle_line : t -> now:int -> conn:int -> string -> output list
(** Parse and admit one request line.  Immediate requests (PING, HEALTH,
    STATS, SNAPSHOT, SHUTDOWN), malformed lines, validation failures and
    admission refusals answer synchronously; admitted work answers from
    a later {!tick}. *)

val tick : t -> now:int -> output list
(** Advance the logical clock to [now] (call with strictly increasing
    values) and run one bounded slice of work; returns the responses
    completed this tick, in processing order. *)

val drain : t -> now:int -> unit
(** Enter draining mode: new work is shed with reason [draining] while
    queued and retrying work keeps being processed by {!tick}.  The
    SHUTDOWN request does exactly this. *)

val drained : t -> bool
(** Draining and nothing left queued or awaiting retry. *)

val take_snapshot_request : t -> bool
(** True when a snapshot is due (periodic cadence or an explicit
    SNAPSHOT request); reading it clears the flag.  The caller owns the
    actual write (see {!Lifecycle.snapshot}) — the reactor performs no
    IO. *)

val system : t -> Bwc_core.Dynamic.t
val mode : t -> mode

val staleness : t -> now:int -> int
(** Ticks since the aggregation last converged (0 when converged). *)

(* bwclint: allow dead-export -- perfbench/twin.ml samples it for reactor.backlog_max; perfbench is outside the lint paths *)
val backlog : t -> int
(** Queued items plus pending retries. *)
