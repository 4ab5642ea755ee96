(** The four-point condition and the treeness parameter epsilon
    (Sec. II-A, II-C and IV-C).

    For four points [w, x, y, z] consider the three pairings of the six
    pairwise distances into two-sums:
    [d(w,x)+d(y,z)], [d(w,y)+d(x,z)], [d(w,z)+d(x,y)].
    The metric is a tree metric iff for every quadruple the two largest
    sums are equal (Buneman, 1974).  Following Abraham et al. (PODC 2007),
    the quadruple's epsilon measures the 4PC violation:
    [(s3 - s2) / (2 * s1)] where [s1 <= s2 <= s3] are the sums — zero for a
    perfect tree metric, and the average over quadruples ([epsilon_avg]) is
    the paper's per-dataset treeness statistic. *)

val epsilon : Space.t -> int -> int -> int -> int -> float
(** Epsilon of one quadruple, as defined above.  Returns [0.] when the
    smallest sum is zero and the metric is degenerate but consistent
    ([s3 = s2]); returns [infinity] if [s1 = 0.] yet [s3 > s2]. *)

val epsilon_avg : ?samples:int -> rng:Bwc_stats.Rng.t -> Space.t -> float
(** Average epsilon over quadruples.  Spaces with at most [~samples]
    (default [100_000]) quadruples are measured exhaustively; larger ones
    by uniform sampling of quadruples. *)

val epsilon_avg_exact : Space.t -> float
(** Exhaustive average over all [C(n,4)] quadruples; intended for small
    [n]. *)

val epsilon_star : float -> float
(** [epsilon_star e] maps [epsilon_avg] in [0, inf) to [0, 1):
    [1 - 1/(1+e)] (Sec. IV-C). *)

(* bwclint: allow test-only-export -- reference oracle: the four-point verdict test/test_metric.ml and test/test_dataset.ml check generators against *)
val is_tree_metric : ?tol:float -> Space.t -> bool
(** Exhaustive 4PC check, intended for small test fixtures. *)
