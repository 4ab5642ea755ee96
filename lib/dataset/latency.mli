(** Latency datasets for the future-work extension (Sec. VI): latency is
    also approximately a tree metric, so the same clustering machinery
    answers latency-constrained queries.

    The encoding reuses {!Dataset}: a latency of [ms] milliseconds is
    stored as the pseudo-bandwidth [C / ms], so the rational transform
    recovers distances proportional to latency and a latency bound of
    [d] ms becomes the bandwidth constraint [C / d], with [C]
    {!Bwc_metric.Bandwidth.default_c}. *)

val generate : rng:Bwc_stats.Rng.t -> n:int -> name:string -> unit -> Dataset.t
(** A hierarchical topology of 20 routers (router-router delays
    log-uniform in 2-60 ms, log-normal host access delays) with
    multiplicative log-normal measurement jitter ([sigma] 0.04). *)

val latency_ms : Dataset.t -> int -> int -> float
(** Decodes the stored pseudo-bandwidth back to milliseconds. *)

val bandwidth_constraint_for : float -> float
(** [bandwidth_constraint_for ms] is the pseudo-bandwidth constraint
    expressing "latency at most [ms] milliseconds". *)
