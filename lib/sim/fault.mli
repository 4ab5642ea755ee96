(** Fault injection for the round-based engine.

    A fault plan decides, per message, whether the network loses,
    duplicates or delays it, and scripts coarser failures: time-windowed
    link partitions and node crash/restart windows.  Every stochastic
    decision draws from the plan's own seeded {!Bwc_stats.Rng}, so a run
    with faults is exactly as reproducible as one without.

    The plan is passed to {!Engine.create}; the engine consults it on
    every send and applies crash schedules at round boundaries.  The plan
    keeps injection counters ([lost], [duplicated], [delayed],
    [partition_dropped]) so experiments can report what the fault model
    actually did to the traffic. *)

type t

type partition = {
  starts : int;  (** first round the cut is in effect *)
  heals : int;   (** first round the cut is no longer in effect *)
  severs : src:int -> dst:int -> bool;  (** which directed links are cut *)
}

type crash = {
  node : int;
  down_from : int;  (** first round the node is down *)
  up_at : int;      (** round the node restarts; [max_int] = never *)
}

(** How a snapshot image is damaged on disk (see {!corrupt_snapshot});
    experiment E15 and the persistence tests inject these. *)
type snapshot_corruption =
  | Truncate of int  (** keep only the first [n] bytes of the image *)
  | Flip_bits of int  (** flip [n] seeded-random bit positions *)
  | Stale_version
      (** rewrite the header line to an unknown format version *)

val none : t
(** The empty plan: no losses, no duplicates, no jitter, no partitions,
    no crashes.  Never draws from any RNG, so an engine with [none]
    behaves bit-for-bit like one built without a fault plan. *)

val create :
  ?drop:float ->
  ?duplicate:float ->
  ?jitter:int ->
  ?partitions:partition list ->
  ?crashes:crash list ->
  ?metrics:Bwc_obs.Registry.t ->
  rng:Bwc_stats.Rng.t ->
  unit ->
  t
(** [drop] is the per-message loss probability, [duplicate] the
    probability a delivered message is enqueued twice (the copy gets an
    independent jitter), [jitter] the maximum extra delivery delay in
    rounds (uniform in [0, jitter]; non-zero draws break link FIFO-ness,
    i.e. reorder messages).  Probabilities outside [0, 1] are rejected.
    [metrics] is the registry the injection counters live in
    ([fault.lost], [fault.duplicated], [fault.delayed],
    [fault.partition_dropped]); a private registry is allocated when
    omitted, so the counters always exist. *)

(** {2 Decisions (consulted by the engine and by query routing)} *)

type verdict =
  | Blocked of [ `Partition | `Loss ]
  | Deliver of int list
      (** extra delays, one per copy to enqueue (singleton = no duplication) *)

val on_send : t -> round:int -> src:int -> dst:int -> verdict
(** Decides the fate of one message and updates the counters. *)

val partitioned : t -> round:int -> src:int -> dst:int -> bool
(** Whether the link is cut by a scripted partition at [round].
    Deterministic; does not touch counters or the RNG. *)

val sample_loss : t -> bool
(** One Bernoulli draw of the loss probability, for traffic that does not
    go through the engine (e.g. synchronous query hops).  Does not touch
    the counters; never draws when the loss probability is zero. *)

val crashes_at : t -> int -> (int * bool) list
(** [(node, up)] transitions scheduled for the given round. *)

val corrupt_snapshot :
  rng:Bwc_stats.Rng.t -> snapshot_corruption -> string -> string
(** Applies one corruption mode to a snapshot image.  Pure in (rng, mode,
    bytes); only [Flip_bits] draws from [rng].  [Stale_version] rewrites
    the header line to format version 999, which no decoder accepts. *)

(** {2 Injection counters} *)
