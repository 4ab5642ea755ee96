(** E17: bwclusterd under overload.

    An offered-load sweep over the deterministic daemon reactor: each
    arm scripts [load x work_budget] requests per tick (two thirds
    queries, a quarter measurement gossip, a trickle of churn) through
    a fresh reactor via the in-memory {!Bwc_daemon.Script} transport,
    runs the same script twice, and accounts for every request.

    The acceptance claims:
    - goodput plateaus at service capacity instead of collapsing —
      overload is refused with typed queue_full/rate_limit sheds at
      admission, not absorbed into timeouts;
    - the accounting identity holds at every load: every well-formed
      request resolves to exactly one typed response — never a silent
      drop;
    - every degraded answer carries an explicit staleness bound
      ([max_staleness] reports the worst bound an arm served);
    - two same-seed runs are byte-identical (transcript and trace). *)

type row = {
  load : float;            (** offered load as a multiple of [work_budget] *)
  offered : int;           (** well-formed requests scripted *)
  answered_live : int;     (** answers served from the live path *)
  answered_degraded : int; (** index answers served while stale *)
  acked : int;             (** churn ingests acknowledged *)
  shed : int;              (** typed admission refusals *)
  timeouts : int;          (** typed deadline expiries *)
  rejected : int;          (** typed validation/ingest rejections *)
  goodput : float;         (** answers + acks per scripted tick *)
  shed_rate : float;       (** shed / offered *)
  max_staleness : int;     (** worst staleness bound any answer carried *)
  drain_ticks : int;       (** extra ticks past the horizon to drain *)
  deterministic : bool;    (** two same-seed runs byte-identical *)
  accounted : bool;        (** 1:1 request/response identity held *)
}

type t = {
  dataset : string;
  n : int;
  ticks : int;
  budget : int;            (** reactor work budget: items per tick *)
  seed : int;
  plateau : float;         (** max goodput over the sweep *)
  rows : row list;
}

val run : ?ticks:int -> seed:int -> Bwc_dataset.Dataset.t -> t
(** Loads [[0.5; 1.0; 2.0; 4.0]] through reactors with
    {!Bwc_daemon.Reactor.default_config}; [ticks] (default 200) per
    arm. *)

val gate : t -> string list
(** Failure messages, empty when the gate passes: every arm accounted
    and byte-identical on replay, and the heaviest arm's goodput within
    10% of the sweep's plateau. *)

val print : t -> unit
val save_csv : t -> string -> unit

val to_json : t -> string
(** The machine-readable form CI archives and byte-compares across
    same-seed reruns ({!Bwc_json.to_rows} layout). *)
