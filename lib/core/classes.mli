(** Bandwidth classes (Sec. III-B.3).

    The decentralized system trades flexibility of the bandwidth
    constraint [b] for routing-table size: queries must pick [b] from a
    fixed, predetermined set of {e bandwidth classes}, each of which maps
    to a distance class [l = C / b].  A node's cluster routing table has
    one column per class. *)

type t

val make : ?c:float -> float list -> t
(** [make ~c bws] from a list of distinct positive bandwidths (Mbps), in
    any order. *)

val of_percentiles : ?c:float -> ?count:int -> Bwc_dataset.Dataset.t -> t
(** Classes at evenly spaced percentiles of the dataset's bandwidth
    distribution between the 20th and 80th (the range the paper draws
    query constraints from); [count] defaults to 8. *)

val count : t -> int
val c : t -> float

val bandwidths : t -> float array
(** Ascending bandwidths. *)

val distances : t -> float array
(** The corresponding distance classes [l], index-aligned with
    {!bandwidths} (so {e descending}). *)

val distance : t -> int -> float

val class_for : t -> b:float -> int option
(** The cheapest class that still guarantees the user's constraint: the
    smallest class bandwidth [>= b].  [None] when [b] exceeds every
    class (the decentralized system then cannot promise [b]; the paper's
    "limited flexibility" tradeoff). *)
