(** E9 — ablation: what does the tree-metric assumption give up on real
    (noisy, non-tree) data?

    The clustering problem on real measurements is k-Clique (NP-complete,
    Sec. V); {!Bwc_core.Clique} decides it exactly.  This experiment runs
    Algorithm 1 directly on the measured distances (the tree assumption
    applied to data that is only approximately a tree metric) and
    compares against the exact oracle:

    - {b missed}: the oracle proves a cluster exists but Algorithm 1
      fails to find one (the [S*_pq] structure is incomplete off-tree);
    - {b invalid}: Algorithm 1 returns a cluster whose true diameter
      violates the constraint (Theorem 3.1's guarantee needs 4PC).

    Both rates should be small on nearly-tree data and grow with
    [epsilon_avg] — the structural explanation for Fig. 5. *)

type row = {
  k : int;
  queries : int;
  oracle_feasible : int; (** queries the exact solver proves feasible *)
  oracle_unknown : int;  (** oracle budget exhaustions (excluded from rates) *)
  alg1_found : int;
  missed : int;          (** oracle-feasible but Algorithm 1 found nothing *)
  invalid : int;         (** Algorithm 1 clusters violating the true constraint *)
}

type output = {
  dataset : string;
  epsilon_avg : float;
  rows : row list; (** ascending k *)
}

val run :
  ?ks:int list -> ?queries_per_k:int -> seed:int -> Bwc_dataset.Dataset.t -> output
(** Constraints are drawn uniformly from the 50th-98th percentile band
    (disagreements concentrate at demanding constraints); defaults: k in
    a small sweep, 30 queries per k.  The oracle runs with
    {!Bwc_core.Clique.exists_cluster}'s budget. *)

val print : output -> unit

val save_csv : output -> string -> unit
