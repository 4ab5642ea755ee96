(** E10 — background cost accounting ("Scalable Search", Sec. I): how the
    protocol overhead grows with system size.

    Reported per system size:
    - construction measurements of the prediction framework (versus the
      full n-to-n probing it replaces);
    - aggregation messages until quiescence, total and per host;
    - rounds to quiescence (how quickly the overlay information settles);
    - the per-message node-information payload bound [n_cut].

    The paper's scalability claim corresponds to per-host message counts
    staying flat (total messages ~ linear in n) and rounds growing slowly
    with the anchor-tree depth. *)

type row = {
  n : int;
  measurements : int;
  full_mesh : int;
  rounds_to_quiescence : int;
  messages_total : int;
  messages_per_host : float;
  anchor_depth : int;
}

type output = {
  base_dataset : string;
  n_cut : int;
  rows : row list;
}

val run :
  ?sizes:int list -> ?repeats:int -> seed:int -> Bwc_dataset.Dataset.t -> output
(** Subsets of the base dataset at [n_cut] 10; values averaged over
    [repeats] (default 2). *)

val print : output -> unit

val save_csv : output -> string -> unit
