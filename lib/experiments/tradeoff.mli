(** E3 — Fig. 4: the tradeoff of decentralization.

    Sweeps the cluster-size constraint [k] and reports RR (Return Rate:
    found clusters over submitted queries) for the centralized and
    decentralized tree approaches.  The paper's qualitative results:
    decentralized RR is bounded by centralized RR at every [k]; the gap is
    negligible while [k] stays under ~20% of the system; both decay as
    queries get harder.  Also provides the E7 ablation over the [n_cut]
    knob that causes the gap. *)

type row = {
  k : int;
  rr_central : float;
  rr_decentral : float;
  queries : int;
}

type output = {
  dataset : string;
  n_cut : int;
  rows : row list; (** ascending k *)
}

val run : ?rounds:int -> ?per_k:int -> seed:int -> Bwc_dataset.Dataset.t -> output
(** Defaults: 5 rounds, 4 queries per [k] per round.  The [k] sweep spans
    2 to ~half the dataset, at [n_cut] 10 (the paper: 100 rounds, k up
    to 90/150, n_cut 10). *)

type ablation_row = {
  a_n_cut : int;
  a_rr : float; (** decentralized RR pooled over the k sweep *)
}

val ncut_ablation :
  ?rounds:int -> ?per_k:int -> ?n_cuts:int list -> seed:int -> Bwc_dataset.Dataset.t ->
  ablation_row list
(** The {!run} sweep of [k] at each [n_cut]. *)

val print : output -> unit
val print_ablation : dataset:string -> ablation_row list -> unit

val save_csv : output -> string -> unit
