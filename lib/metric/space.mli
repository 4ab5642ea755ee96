(** A finite metric space: [n] points and a pairwise distance function.

    Every clustering algorithm in this repository is written against this
    abstraction, so the same code runs on real measurements, tree-predicted
    distances, Vivaldi coordinates, or synthetic metrics. *)

type t = private {
  n : int;
  dist : int -> int -> float;
}

val make : n:int -> dist:(int -> int -> float) -> t
(** [make ~n ~dist] wraps a distance function.  [dist] must be symmetric
    with a zero diagonal; this is the caller's responsibility (checked by
    {!Check.verify} in tests). *)

val of_dmatrix : Dmatrix.t -> t

val to_dmatrix : t -> Dmatrix.t
(** Materialises the space into a dense matrix (useful to cache an
    expensive [dist]). *)

val cached : t -> t
(** [cached s] evaluates every pair once and serves lookups from a dense
    matrix. *)

(* bwclint: allow test-only-export -- perfbench/drive.ml builds its reference answers with it; perfbench is outside the lint paths *)
val restrict : t -> int array -> t
(** [restrict s idx] is the subspace on points [idx]; point [i] of the
    result is point [idx.(i)] of [s]. *)

val diameter : t -> int list -> float
(** Maximum pairwise distance over a point set ([0.] for fewer than two
    points). *)

val of_bandwidth : ?c:float -> Dmatrix.t -> t
(** [of_bandwidth ~c bw] applies the rational transform entry-wise:
    [dist i j = c / bw(i,j)] for [i <> j] and [0.] on the diagonal. *)
