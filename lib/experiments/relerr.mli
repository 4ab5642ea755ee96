(** E2 — Fig. 3(b,d): CDFs of relative bandwidth-prediction error for the
    tree embedding (the prediction framework) versus the Vivaldi 2-d
    Euclidean embedding, pooled over rounds.  The paper's qualitative
    result: the tree CDF dominates (sits left of) the Euclidean CDF. *)

type output = {
  dataset : string;
  tree : Bwc_stats.Cdf.t;
  eucl : Bwc_stats.Cdf.t;
}

val run : ?rounds:int -> seed:int -> Bwc_dataset.Dataset.t -> output
(** Default 3 rounds (the paper pools 10). *)

val median_gap : output -> float
(** [median(eucl) - median(tree)]; positive when the tree embedding is
    more accurate. *)

val print : output -> unit
(** Both CDFs at ten cumulative fractions, then the {!median_gap}. *)

val save_csv : output -> string -> unit
(** Writes both CDFs at a hundred cumulative fractions as CSV. *)
