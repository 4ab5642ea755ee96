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

(** Why a CSV file is not a dataset. *)
type load_error =
  | Unreadable of string
      (** the system's message on opening or reading, without the file's
          name *)
  | Empty  (** no non-blank line *)
  | Not_a_number of { row : int; col : int; cell : string }
  | Not_square of { row : int; cells : int; rows : int }
  | Bad_bandwidth of { i : int; j : int; bw : float }
      (** a symmetrized bandwidth that is not positive and finite: a
          [nan], zero, negative or infinite cell off the diagonal *)

val load_error_to_string : load_error -> string
(** One line, without the file's name. *)

val load_csv : name:string -> string -> (t, load_error) result
(** Reads a matrix written from {!to_csv} (or any full square CSV of
    positive bandwidths; blank lines are skipped, cells are trimmed and
    read by [float_of_string_opt], so ["inf"] on the diagonal reads);
    enforces symmetry by averaging.  Rows and columns count from 0 among
    the non-blank lines.  Never raises. *)
