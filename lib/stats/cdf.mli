(** Empirical cumulative distribution functions.

    Used throughout the evaluation: bandwidth-distribution percentiles for
    query generation, the relative-error CDFs of Fig. 3, and the [f_b]
    (fraction of pairs around the bandwidth constraint) statistic of the
    treeness analysis (Sec. IV-C). *)

type t

val make : float array -> t
(** Builds the empirical CDF of the sample.  The input is copied. *)

val eval : t -> float -> float
(** [eval cdf x] is the fraction of samples [<= x], in [0, 1]. *)

val quantile : t -> float -> float
(** [quantile cdf p] with [p] in [0, 1]: smallest sample value [v] such that
    [eval cdf v >= p]. *)

val fraction_in : t -> lo:float -> hi:float -> float
(** Fraction of samples in the closed interval [[lo, hi]]. *)
