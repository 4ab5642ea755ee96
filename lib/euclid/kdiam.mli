(** Diameter-constrained clustering in the 2-d Euclidean plane — the
    paper's comparison model (Sec. IV-A), adapted from the k-diameter
    algorithm of Aggarwal, Imai, Katoh & Suri (SoCG 1989).

    For each candidate pair [(p, q)] with [d(p,q) <= l], the points within
    [d(p,q)] of both endpoints form a lens; splitting the lens along the
    line [pq] gives two halves of diameter [<= d(p,q)], so the conflict
    graph (pairs farther than [d(p,q)]) is bipartite, and the largest
    pairwise-close subset is a maximum independent set obtained through
    König's theorem. *)

(* bwclint: allow test-only-export -- reference oracle: the direct search test/test_euclid.ml checks Kdiam.Index against *)
val find_cluster :
  points:Bwc_vivaldi.Coord.t array -> k:int -> l:float -> int list option
(** [find_cluster ~points ~k ~l] returns [k] point indices with pairwise
    Euclidean distance [<= l], or [None].  Pairs are scanned in ascending
    distance order, so the returned cluster tends to be the tightest
    available (mirroring the scan order used by the tree-metric
    Algorithm 1 in this repository, which keeps WPR comparisons fair).
    Requires [k >= 2]. *)

(* bwclint: allow test-only-export -- reference oracle: the direct maximum test/test_euclid.ml checks Kdiam.Index.find against *)
val max_cluster_size : points:Bwc_vivaldi.Coord.t array -> l:float -> int
(** Size of the largest subset with pairwise distance [<= l] (at least 1
    for a non-empty point set). *)

val lens_members :
  points:Bwc_vivaldi.Coord.t array -> p:int -> q:int -> int list
(** The candidate set of the pair: indices within [d(p,q)] of both [p] and
    [q] (including [p] and [q]); exposed for tests. *)

(** Precomputed pair index for repeated queries over a fixed point set. *)
module Index : sig
  type t

  val build : Bwc_vivaldi.Coord.t array -> t
  val find : t -> k:int -> l:float -> int list option
  (** Same result as {!find_cluster} on the indexed points. *)
end
