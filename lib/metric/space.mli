(** A finite metric space: [n] points and their pairwise distances.

    Every clustering algorithm in this repository is written against this
    abstraction, so the same code runs on real measurements, tree-predicted
    distances, Vivaldi coordinates, or synthetic metrics.

    A space is a dense, row-major [n]x[n] matrix: [d.(i * n + j)] is the
    distance from point [i] to point [j].  Every constructor materialises
    the matrix once, so hot loops index [d] with [Float.Array.get] (a
    primitive, inlined even across modules compiled [-opaque]) instead of
    calling a function that would box each result. *)

type t = private {
  n : int;
  d : Float.Array.t;  (** [n * n] entries, symmetric, zero diagonal *)
}

val dist : t -> int -> int -> float
(** [dist s i j] for cold callers; raises [Invalid_argument] out of
    range.  Kernels read [s.d] directly. *)

val make : n:int -> dist:(int -> int -> float) -> t
(** [make ~n ~dist] evaluates [dist i j] once per pair [i < j] (row by
    row), mirrors it to [(j, i)] and puts [0.] on the diagonal.  [dist]
    must describe a metric; symmetry and the zero diagonal are imposed,
    the triangle inequality is the caller's responsibility (checked by
    {!Check.verify} in tests). *)

val of_dmatrix : Dmatrix.t -> t
(** Copies every entry, the diagonal included. *)

val to_dmatrix : t -> Dmatrix.t

(* bwclint: allow test-only-export -- perfbench/twin.ml and perfbench/drive.ml call it; perfbench is outside the lint paths *)
val cached : t -> t
(** The identity: every space is already materialised. *)

val restrict : t -> int array -> t
(** [restrict s idx] is the subspace on points [idx], copied; point [i]
    of the result is point [idx.(i)] of [s]. *)

val diameter : t -> int list -> float
(** Maximum pairwise distance over a point set ([0.] for fewer than two
    points). *)

val of_bandwidth : ?c:float -> Dmatrix.t -> t
(** [of_bandwidth ~c bw] applies the rational transform entry-wise:
    [dist i j = c / bw(i,j)] for [i <> j] and [0.] on the diagonal. *)
