(** E1 — Fig. 3(a,c): clustering accuracy.

    Sends fixed-[k] queries with bandwidth constraints drawn uniformly
    from the dataset's 20th-80th percentile band and reports WPR (Wrong Pair Rate: wrong pairs over
    all pairs in all returned clusters) per constraint value, for the
    three approaches.  The paper's qualitative result: WPR grows with
    [b], and both tree approaches beat the Euclidean model at every
    [b]. *)

type row = {
  b : float;              (** mean constraint of the bin, Mbps *)
  wpr_tree_decentral : float;
  wpr_tree_central : float;
  wpr_eucl_central : float;
  queries : int;          (** queries contributing to this row *)
}

type output = {
  dataset : string;
  rows : row list;        (** ascending [b] *)
  rr_tree_decentral : float; (** overall return rates, for sanity *)
  rr_tree_central : float;
  rr_eucl_central : float;
}

val run :
  ?rounds:int -> ?queries_per_round:int -> seed:int -> Bwc_dataset.Dataset.t -> output
(** Defaults: 3 rounds, 200 queries per round.  [k] is 5% of the dataset
    (at least 2), and constraints uniform in the 20th-80th percentile
    band are reported in 6 bins (the paper: 10 rounds, 1000 queries,
    k = 5%). *)

val print : output -> unit

val save_csv : output -> string -> unit
(** Writes the per-bin series as CSV (for plotting). *)
