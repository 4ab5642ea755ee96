(** Bandwidth datasets: a named full symmetric matrix of pairwise available
    bandwidth (Mbps) between hosts, plus the preprocessing steps the paper
    applies to its PlanetLab measurements (Sec. IV):
    symmetrization by averaging forward/reverse, and extraction of complete
    submatrices. *)

type t = {
  name : string;
  bw : Bwc_metric.Dmatrix.t;  (** pairwise bandwidth, [infinity] diagonal *)
}

val make : name:string -> Bwc_metric.Dmatrix.t -> t
(** Validates that all off-diagonal bandwidths are positive and finite. *)

val size : t -> int

val bw : t -> int -> int -> float
(** Pairwise bandwidth; [infinity] for [i = j]. *)

val metric : ?c:float -> t -> Bwc_metric.Space.t
(** The dataset under the rational transform [d = C / BW]. *)

val symmetrize_asymmetric :
  name:string -> (int -> int -> float) -> int -> t
(** [symmetrize_asymmetric ~name raw n] builds a dataset from an asymmetric
    measurement function by averaging [raw i j] and [raw j i]
    (the paper's preprocessing of pathChirp matrices). *)

val subset : t -> int array -> t
(** Principal sub-dataset on the given host indices, named
    ["<name>/sub<m>"]. *)

val random_subset : t -> rng:Bwc_stats.Rng.t -> int -> t
(** [random_subset t ~rng m] keeps [m] uniformly chosen hosts (used by the
    scalability experiment, Sec. IV-D). *)

val bandwidth_values : t -> float array
(** All off-diagonal bandwidths (each unordered pair once). *)

val bandwidth_cdf : t -> Bwc_stats.Cdf.t

val percentile_range : t -> lo:float -> hi:float -> float * float
(** [percentile_range t ~lo ~hi] is the [(lo, hi)] percentile pair of the
    bandwidth distribution — the paper draws query constraints [b] between
    the 20th and 80th percentiles. *)

val to_csv : t -> string
(** The full square matrix as CSV, one row per line, [inf] on the
    diagonal.  Callers write it whole ([bwcluster gen] through
    [Bwc_persist.Codec.write_file]), so a failed write leaves no torn
    file. *)

val load_csv : name:string -> string -> t
(** Reads a matrix written from {!to_csv} (or any full square CSV of
    positive bandwidths); enforces symmetry by averaging. *)
