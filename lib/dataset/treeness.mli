(** Dataset families with swept treeness, for the Fig. 5 experiment.

    The paper builds six 100-node datasets with different [epsilon_avg] by
    selecting subsets of HP-PlanetLab; we instead sweep the noise level of
    the synthetic generator, which provides direct, monotonic control of
    [epsilon_avg] over a comparable range. *)

type entry = {
  dataset : Dataset.t;
  sigma : float;        (** the noise level that produced it *)
  epsilon_avg : float;  (** measured treeness (sampled) *)
}

val sweep :
  rng:Bwc_stats.Rng.t -> ?sigmas:float list -> ?epsilon_samples:int -> n:int -> unit ->
  entry list
(** [sweep ~rng ~sigmas ~n ()] generates one dataset per noise level from a
    shared perfect-tree base (same hosts, same base topology), measures
    [epsilon_avg] of each and returns them ordered as given. *)

(* bwclint: allow test-only-export -- test/test_dataset.ml (treeness subset selection) is the only caller; deleting it with that test is queued on ROADMAP *)
val subset_with_treeness :
  rng:Bwc_stats.Rng.t -> ?epsilon_samples:int -> Dataset.t -> size:int -> tries:int ->
  high:bool -> entry
(** The paper's original mechanism, also provided: draw [tries] random
    subsets of [size] hosts and keep the one with the highest (or lowest,
    [high = false]) measured [epsilon_avg]. *)
