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

val sweep : rng:Bwc_stats.Rng.t -> ?sigmas:float list -> n:int -> unit -> entry list
(** [sweep ~rng ~sigmas ~n ()] generates one dataset per noise level from a
    shared perfect-tree base (same hosts, same base topology), measures
    [epsilon_avg] of each (from 20,000 sampled quadruples) and returns
    them ordered as given. *)
