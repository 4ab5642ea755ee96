(** Heartbeat/lease failure detection over anchor-tree edges.

    Each member {e watches} its overlay neighbors: a directed
    [(watcher, peer)] edge carries the round the watcher last heard from
    the peer.  Any received protocol message (update, ack or dedicated
    heartbeat) renews the lease.  A peer silent for [suspect_after]
    rounds becomes {e suspected} — queries detour around it but nothing
    is torn down; after [confirm_after] rounds of silence it is
    {e confirmed dead} and handed to the self-healing repair path.

    The detector is deterministic: state transitions are scanned in
    sorted edge order, and the only randomness is the optional per-edge
    [jitter] slack drawn from the seeded generator passed to {!create}
    (it staggers timeouts so repairs don't synchronise; [0] by default,
    keeping same-seed runs byte-identical). *)

type config = {
  heartbeat_every : int;
      (** send a heartbeat on a link idle this many rounds (>= 1) *)
  suspect_after : int;
      (** rounds of silence before suspicion; must exceed
          [heartbeat_every + 1] so one lost heartbeat cannot trigger it *)
  confirm_after : int;
      (** rounds of silence before the peer is confirmed dead; must
          exceed [suspect_after] *)
  jitter : int;  (** max extra per-edge slack on both thresholds (>= 0) *)
}

val default_config : config
(** [{ heartbeat_every = 2; suspect_after = 6; confirm_after = 10;
      jitter = 0 }]. *)

type state = Alive | Suspected | Confirmed

type t

val create :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  rng:Bwc_stats.Rng.t ->
  config ->
  t
(** Validates the config (see field docs; [Invalid_argument] otherwise).
    Registers the [detector.suspects] and [detector.confirms] counters
    in [metrics]; emits [Suspect] / [Confirm_dead] trace events. *)

val config : t -> config

val watch : t -> watcher:int -> peer:int -> round:int -> unit
(** Start (or reset) monitoring of [peer] by [watcher], lease renewed as
    of [round]. *)

val unwatch : t -> watcher:int -> peer:int -> unit

val heard : t -> watcher:int -> peer:int -> round:int -> unit
(** Renew the lease: [watcher] received a message from [peer] at
    [round].  Clears suspicion — any sign of life revives the peer. *)

val state : t -> watcher:int -> peer:int -> state
(** [Alive] for unmonitored edges. *)

val suspects : t -> watcher:int -> peer:int -> bool
(** [true] iff the edge is [Suspected] or [Confirmed]: the watcher
    should route around the peer. *)

val tick : t -> round:int -> live:(int -> bool) -> int list
(** Advance lease expiry at the end of [round].  Emits [Suspect] /
    [Confirm_dead] transitions in sorted edge order and returns the
    sorted, deduplicated list of peers newly confirmed dead this round
    (by any {e live} watcher).  Edges whose watcher is not [live] are
    frozen: a dead node's detector cannot observe or act, so its expired
    leases must not condemn its (live) peers. *)

val pending : t -> round:int -> bool
(** [true] while some lease is running towards expiry (a monitored peer
    has been silent past the heartbeat horizon): the protocol must keep
    running rounds for the detector to resolve the silence either way. *)

(** {2 Persistence} *)

type edge_dump = {
  d_watcher : int;
  d_peer : int;
  d_last_heard : int;
  d_state : state;
  d_slack : int;
}

type dump = {
  d_config : config;
  d_rng : int64;  (** jitter generator state *)
  d_edges : edge_dump list;  (** ascending (watcher, peer) *)
}

val dump : t -> dump

val of_dump : ?metrics:Bwc_obs.Registry.t -> ?trace:Bwc_obs.Trace.t -> dump -> t
(** Reconstructs the detector mid-lease: every edge keeps its last-heard
    round, suspicion state and per-edge slack, so leases that were
    running towards expiry keep running after a restore.  Validates the
    config and the per-edge slack range; raises [Invalid_argument]
    otherwise. *)
