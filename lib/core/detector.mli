(** Heartbeat/lease failure detection over anchor-tree links.

    Each member {e watches} its overlay neighbours: the protocol's link
    from a watcher to a peer carries a {!lease}, the round the watcher
    last heard from the peer.  Any received protocol message (update,
    ack or dedicated heartbeat) renews the lease.  A peer silent for
    [suspect_after] rounds becomes {e suspected} — queries detour around
    it but nothing is torn down; after [confirm_after] rounds of silence
    it is {e confirmed dead} and handed to the self-healing repair path.

    The detector holds the rule, not the leases: {!Protocol} keeps one
    lease in each link record and advances them in a fixed order
    (members ascending, each member's links by ascending peer id), so
    the transitions, their trace events and the repairs they start are
    deterministic.  The only randomness is the optional per-link
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
  jitter : int;  (** max extra per-link slack on both thresholds (>= 0) *)
}

val default_config : config
(** [{ heartbeat_every = 2; suspect_after = 6; confirm_after = 10;
      jitter = 0 }]. *)

type state = Alive | Suspected | Confirmed

type lease = {
  last_heard : int;  (** the round the watcher last heard from the peer *)
  state : state;
  slack : int;  (** seeded stretch of both thresholds, in [[0, jitter]] *)
}
(** One watched link. *)

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

val lease : t -> round:int -> lease
(** A fresh lease, [Alive] and renewed as of [round], with its slack
    drawn (the generator advances only when [jitter > 0]). *)

val heard : lease -> round:int -> lease
(** The lease renewed: the watcher received a message from the peer at
    [round].  Clears suspicion — any sign of life revives the peer. *)

val suspects : lease -> bool
(** [true] iff the lease is [Suspected] or [Confirmed]: the watcher
    should route around the peer. *)

val advance : t -> round:int -> watcher:int -> peer:int -> lease -> lease
(** Lease expiry at the end of [round]: an [Alive] lease silent for
    [suspect_after + slack] rounds becomes [Suspected], a [Suspected]
    one silent for [confirm_after + slack] rounds [Confirmed], each with
    its counter and trace event.  The caller advances only leases whose
    watcher is live: a dead node's detector cannot observe or act, so
    its expired leases must not condemn its (live) peers. *)

val overdue : t -> round:int -> lease -> bool
(** The peer has been silent past the heartbeat horizon: the lease is
    running towards expiry, and the protocol must keep running rounds
    for the detector to resolve the silence either way. *)

(** {2 Persistence} *)

type dump = {
  d_config : config;
  d_rng : int64;  (** jitter generator state *)
}

val dump : t -> dump

val of_dump : ?metrics:Bwc_obs.Registry.t -> ?trace:Bwc_obs.Trace.t -> dump -> t
(** Validates the config; raises [Invalid_argument] otherwise.  The
    leases travel in the protocol's link records. *)
