(** Bipartite graphs with maximum matching (Hopcroft-Karp) and maximum
    independent set extraction (König's theorem).

    The Euclidean k-diameter clustering algorithm reduces "largest subset
    of the lens with pairwise distance <= r" to a maximum independent set
    in a bipartite conflict graph; König turns the matching into the MIS
    exactly. *)

type t

val create : left:int -> right:int -> t
val add_edge : t -> int -> int -> unit
(** [add_edge g u v] connects left vertex [u] to right vertex [v]. *)

(* bwclint: allow test-only-export -- reference oracle: test/test_euclid.ml checks the Koenig MIS size against it *)
val max_matching : t -> int
(** Size of a maximum matching (Hopcroft-Karp, O(E sqrt V)). *)

val max_independent_set : t -> bool array * bool array
(** [(in_left, in_right)] membership flags of a maximum independent set.
    Its size is [left + right - max_matching] (König). *)
