(** Bounded, rate-limited, class-prioritized admission control.

    Three lanes — churn events, cluster queries, measurement gossip —
    each a bounded FIFO behind an integer token bucket refilled once per
    reactor tick.  Every refusal is typed ({!shed_reason}); the reactor
    turns it into an explicit SHED response, so overload never drops a
    request silently.

    Priority (churn > query > meas) is enforced at the door — gossip is
    shed while the churn lane is under pressure (above half capacity) —
    and again at dequeue time by the reactor's drain order. *)

type cls = Churn | Query | Meas

val cls_name : cls -> string
(** Wire name: ["churn"], ["query"], ["meas"]. *)

type shed_reason =
  | Queue_full    (** the lane's bounded FIFO is at capacity *)
  | Rate_limited  (** the lane's token bucket is empty this tick *)
  | Pressure      (** gossip shed while the churn lane is above half
                      capacity (a churn storm outranks freshness) *)
  | Draining      (** the reactor is shutting down and admits nothing
                      new (issued by the reactor, not by {!offer}) *)

val shed_reason_name : shed_reason -> string

type limits = {
  cap : int;    (** bounded queue capacity, [>= 1] *)
  rate : int;   (** tokens added per tick, [>= 0] *)
  burst : int;  (** token bucket ceiling, [>= 1] *)
}

type config = { churn : limits; query : limits; meas : limits }

type 'a t

val create : ?metrics:Bwc_obs.Registry.t -> config -> 'a t
(** With [?metrics], maintains [daemon.admitted{class}],
    [daemon.shed{class,reason}] counters and a
    [daemon.queue_depth{class}] gauge.  Raises [Invalid_argument] on a
    non-positive capacity or burst. *)

val offer : 'a t -> cls -> 'a -> (unit, shed_reason) result
(** Admit [item] into the lane for [cls], or say exactly why not. *)

val take : 'a t -> cls -> 'a option
(** Dequeue the oldest admitted item of a class (FIFO within a lane). *)

val refill : 'a t -> unit
(** Add each lane's per-tick token allotment (clamped at [burst]).
    Call exactly once per reactor tick. *)

val depth : 'a t -> cls -> int
val backlog : 'a t -> int
(** Total queued items across all lanes. *)
