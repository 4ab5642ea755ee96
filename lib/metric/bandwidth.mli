(** Transforms between bandwidth values and metric distances (Sec. II-B).

    Bandwidth is "higher is better" while a metric distance is "smaller is
    closer", so the paper represents bandwidth as a metric through the
    {e rational transform} [d(u,v) = C / BW(u,v)] with a positive constant
    [C].  The linear transform [d = C - BW] embeds poorly (prior work)
    and is not provided. *)

val default_c : float
(** The constant [C] used throughout this library when none is supplied
    ([10_000.]).  Any positive constant yields the same clustering results:
    it only rescales distances. *)

val to_distance : ?c:float -> float -> float
(** [to_distance ~c bw] is [c /. bw].  [bw] must be positive; an infinite
    bandwidth (a node to itself) maps to distance [0.]. *)

val of_distance : ?c:float -> float -> float
(** [of_distance ~c d] is [c /. d], the inverse transform used for
    prediction: [BW_T(u,v) = C / d_T(u,v)].  A distance of [0.] maps to
    [infinity]. *)

val symmetrize : float -> float -> float
(** [symmetrize fwd rev] averages forward and reverse measurements, the
    paper's choice for satisfying metric symmetry (Sec. II-B). *)
