(** The unit of information exchanged by Algorithm 2: a host id together
    with its distance labels (one per prediction tree of the ensemble).
    The labels are all a remote node needs to rank the host by predicted
    distance and to run Algorithm 1 locally, so this record is the entire
    "node information" payload of the aggregation protocol. *)

type t = {
  host : int;
  labels : Bwc_predtree.Label.t array;
}

val make : host:int -> labels:Bwc_predtree.Label.t array -> t

val dist : t -> t -> float
(** Median predicted tree distance across the ensemble. *)

val space_of : t array -> Bwc_metric.Space.t
(** The clustering space spanned by a set of node infos: point [i] of the
    space is [infos.(i)], distances are label distances (Algorithms 3 and
    4 run {!Find_cluster} on exactly this).  Every pair's distance is
    computed once, up front, and served from a dense matrix. *)

val compare_host : t -> t -> int
