(** Synthetic stand-ins for the paper's two PlanetLab datasets.

    The originals (HP-PlanetLab, 190 hosts, and UMD-PlanetLab, 317 hosts;
    pathChirp available-bandwidth matrices) are not publicly available, so
    we generate datasets with the properties the experiments actually
    depend on: the host count, the bandwidth range the paper draws query
    constraints from (20th-80th percentile: 15-75 Mbps for HP, 30-110 Mbps
    for UMD), and approximate treeness.  The generator is a hierarchical
    ISP tree (a perfect tree metric) degraded by multiplicative noise and
    calibrated so that the bandwidth percentiles match the targets.  See
    DESIGN.md, "Substitutions". *)

type target = {
  n : int;
  p20 : float;          (** 20th-percentile bandwidth, Mbps *)
  p80 : float;          (** 80th-percentile bandwidth, Mbps *)
  noise_sigma : float;  (** log-normal noise level; controls epsilon_avg *)
}

val hp_target : target
(** 190 hosts, 15-75 Mbps. *)

val umd_target : target
(** 317 hosts, 30-110 Mbps. *)

val generate : rng:Bwc_stats.Rng.t -> name:string -> target -> Dataset.t
(** Calibrated generation: matches [p20]/[p80] within a few percent. *)

val hp_like : seed:int -> Dataset.t
(** [generate] with {!hp_target}, named ["HP-PlanetLab-like"]. *)

val umd_like : seed:int -> Dataset.t
(** [generate] with {!umd_target}, named ["UMD-PlanetLab-like"]. *)

val load : seed:int -> string -> (Dataset.t, Dataset.load_error) result
(** The dataset a [--dataset] argument names, the one loader of
    [bwcluster] and [bwclusterd]: ["hp"] ({!hp_like}), ["umd"]
    ({!umd_like}), ["hp-small"]/["umd-small"] (120-host variants for
    quick runs), and any other name is the path of a CSV file
    ({!Dataset.load_csv}, named after its base name). *)
