(** Latency datasets for the future-work extension (Sec. VI): latency is
    also approximately a tree metric, so the same clustering machinery
    answers latency-constrained queries.

    The encoding reuses {!Dataset}: a latency of [ms] milliseconds is
    stored as the pseudo-bandwidth [C / ms], so the rational transform
    recovers distances proportional to latency and a latency bound of
    [d] ms becomes the bandwidth constraint [C / d]. *)

type params = {
  routers : int;
  core_ms_lo : float;    (** router-router delays, log-uniform, ms *)
  core_ms_hi : float;
  access_mu : float;     (** host access delays, log-normal (log-ms) *)
  access_sigma : float;
  jitter_sigma : float;  (** multiplicative log-normal measurement jitter *)
}

val generate :
  rng:Bwc_stats.Rng.t -> ?params:params -> ?c:float -> n:int -> name:string -> unit ->
  Dataset.t

val latency_ms : ?c:float -> Dataset.t -> int -> int -> float
(** Decodes the stored pseudo-bandwidth back to milliseconds. *)

val bandwidth_constraint_for : ?c:float -> float -> float
(** [bandwidth_constraint_for ms] is the pseudo-bandwidth constraint
    expressing "latency at most [ms] milliseconds". *)
