(** Controlled degradation of treeness.

    Real PlanetLab bandwidth is only {e approximately} a tree metric.  We
    reproduce that by applying independent multiplicative log-normal noise
    to each unordered pair of a perfect tree-metric dataset; [sigma = 0]
    leaves the dataset untouched and increasing [sigma] increases the
    paper's [epsilon_avg] treeness statistic monotonically (verified by
    tests and swept by {!Treeness}). *)

val multiplicative :
  rng:Bwc_stats.Rng.t -> sigma:float -> ?name:string -> Dataset.t -> Dataset.t
(** [multiplicative ~rng ~sigma ds] multiplies each pairwise bandwidth by
    an independent [exp (sigma * N(0,1))] factor. *)

val host_drift : rng:Bwc_stats.Rng.t -> amplitude:float -> Dataset.t -> Dataset.t
(** [host_drift ~rng ~amplitude ds] models changing load on access links:
    each host [i] gets a drift term [a_i] added to its leaf distance, so
    the distance of every pair moves by [a_i + a_j] (with
    [d' = C/bw' = C/bw + a_i + a_j]).  Unlike per-pair noise this
    preserves an exact tree metric exactly, which is what physically
    changing link capacities do.  [amplitude] scales the drift relative
    to a quarter of the median pairwise distance; negative drifts are
    clamped so every bandwidth stays positive and finite.  The result is
    named ["<name>+hostdrift<amplitude>"]. *)
