(** Metric-property verification (Sec. II-B's four properties).

    Real bandwidth data only approximately satisfies the triangle
    inequality, so violations are reported as a fraction rather than a
    boolean. *)

type report = {
  non_negative : bool;          (** every distance [>= 0.] *)
  zero_diagonal : bool;         (** [d(i,i) = 0.] for all [i] *)
  symmetric : bool;             (** always true for {!Dmatrix}-backed spaces *)
  triangle_violations : float;  (** fraction of ordered triples violating
                                    [d(u,w) <= d(u,v) + d(v,w)] beyond [tol] *)
  triples_checked : int;
}

val verify : rng:Bwc_stats.Rng.t -> Space.t -> report
(** [verify ~rng s] checks the metric properties, sampling [200_000]
    triples uniformly when the space has more ordered triples than that.
    Symmetry and the triangle inequality allow a relative slack of
    [1e-9]. *)

(* bwclint: allow test-only-export -- reference oracle: the metric-axiom verdict test/test_metric.ml and test/test_dataset.ml check generators against *)
val is_metric : report -> bool
(** True when all properties hold and no triangle violations were seen. *)

val pp : Format.formatter -> report -> unit
