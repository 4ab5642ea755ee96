(** E11 — routing-policy ablation.

    Algorithm 4 forwards to "any" neighbor whose CRT column promises a
    big-enough cluster.  This experiment compares the two natural
    instantiations — forward to the direction with the largest promised
    cluster versus the first qualifying neighbor — on hop counts and
    return rate.  Both are correct on converged tables; the interesting
    question is whether greed shortens paths. *)

type row = {
  k : int;
  queries : int;
  rr_best : float;
  rr_first : float;
  hops_best : float;  (** mean over answered queries *)
  hops_first : float;
}

type output = {
  dataset : string;
  rows : row list;
}

val run :
  ?queries_per_k:int -> ?rounds:int -> seed:int -> Bwc_dataset.Dataset.t -> output
(** Four values of [k] spanning 8%-30% of the dataset; defaults: 60
    queries per [k] per round, 2 rounds. *)

val print : output -> unit

val save_csv : output -> string -> unit
