(** Vivaldi network coordinates (Dabek et al., SIGCOMM 2004) in 2-d
    Euclidean space — the embedding behind the paper's comparison model
    (EUCL-CENTRAL, Sec. IV-A).

    Each node holds a coordinate and a confidence weight; on every sample
    of a measured distance to a peer it nudges its coordinate along the
    error gradient with the adaptive timestep of the original paper
    ([cc = ce = 0.25]).  The target distances here are bandwidths under
    the rational transform [d = C / BW]. *)

type params = {
  cc : float;      (** coordinate timestep gain *)
  ce : float;      (** confidence moving-average gain *)
  rounds : int;    (** simulation rounds *)
  samples_per_round : int; (** peers sampled by each node per round *)
}

val default_params : params
(** [cc = 0.25], [ce = 0.25], [rounds = 100], [samples_per_round = 8]. *)

type t

val embed : rng:Bwc_stats.Rng.t -> ?params:params -> Bwc_metric.Space.t -> t
(** Runs the protocol over the measured space until [rounds] have
    elapsed. *)

val coords : t -> Coord.t array

val predicted : t -> int -> int -> float
(** Euclidean distance between embedded coordinates ([0.] on the
    diagonal). *)

val predicted_bw : ?c:float -> t -> int -> int -> float

val relative_errors : ?c:float -> t -> Bwc_metric.Space.t -> float array
(** Per-pair relative bandwidth-prediction error against the measured
    space, as in Fig. 3(b,d). *)

(* bwclint: allow test-only-export -- reference measure: test/test_vivaldi.ml's convergence tests check the embedding against it *)
val mean_fit_error : t -> Bwc_metric.Space.t -> float
(** Mean relative distance error — the embedding-quality number Vivaldi
    papers report; used by convergence tests. *)
