(** The access-link bottleneck model (Sec. II-C, second evidence).

    Each host has an access-link capacity and the bandwidth between two
    hosts is the minimum of their capacities — the theoretical topology
    model for which the induced space is a {e perfect} tree metric
    (Ramasubramanian et al., MSR-TR-2008-124).  Used as a ground-truth
    tree-metric generator in tests and as the epsilon = 0 extreme of the
    treeness sweep. *)

val of_capacities : name:string -> float array -> Dataset.t
(** [of_capacities ~name caps] has [BW(u,v) = min caps.(u) caps.(v)].
    Capacities must be positive and finite. *)

(* bwclint: allow test-only-export -- reference model: the exact access-link tree metrics test/test_core.ml and test/test_dataset.ml check the pipeline against *)
val generate : rng:Bwc_stats.Rng.t -> n:int -> unit -> Dataset.t
(** [generate ~rng ~n ()] draws capacities from a log-normal
    distribution ([mu] 4.0 and [sigma] 0.9 in log-space: a median of
    ~55 Mbps with a heavy tail, a shape similar to PlanetLab access
    links). *)
