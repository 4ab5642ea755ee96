(** Two-dimensional Euclidean coordinates for Vivaldi. *)

type t = {
  x : float;
  y : float;
}

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val norm : t -> float
val dist : t -> t -> float

val unit_towards : from:t -> towards:t -> rng:Bwc_stats.Rng.t -> t
(** Unit vector from [from] to [towards]; a uniformly random unit vector
    when the two points coincide (the standard Vivaldi tie-breaker that
    lets colocated nodes repel). *)

val random_in_box : rng:Bwc_stats.Rng.t -> halfwidth:float -> t
