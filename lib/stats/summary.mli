(** Summary statistics over float samples. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); [0.] for fewer than two
    samples. *)

val stddev : float array -> float

val min : float array -> float
val max : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100], linearly interpolated between
    order statistics (the same convention as numpy's default).  The input
    need not be sorted.  Raises [Invalid_argument] on an empty array. *)

val percentiles : float array -> float array -> float array
(** [percentiles xs ps] is [Array.map (percentile xs) ps] from one sorted
    copy of [xs]. *)

val median : float array -> float

type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}
(** A one-shot digest of a sample. *)

val of_array : float array -> t option
val pp : Format.formatter -> t -> unit
