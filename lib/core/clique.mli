(** Exact k-clique search on thresholded bandwidth graphs.

    Sec. V observes that bandwidth-constrained clustering in the {e real}
    world is exactly k-Clique on the graph with an edge wherever
    [BW(u,v) >= b] — NP-complete, which is why the paper retreats to tree
    metric spaces.  This module provides the exact (exponential
    worst-case) solver as the missing baseline: a budgeted
    Bron-Kerbosch-with-pivoting search.  It serves as ground truth for
    feasibility on real measurements (the E9 ablation quantifies how much
    the tree-metric assumption gives up) and as an oracle in tests.

    The budget bounds the number of recursive expansions; realistic
    threshold graphs are decided quickly, and [Unknown] is returned when
    the budget runs out rather than stalling the experiment (the SWORD
    system discussed in Sec. V behaves the same way with its timeout). *)

type verdict =
  | Feasible of int list (** a clique of the requested size *)
  | Infeasible
  | Unknown              (** budget exhausted *)

val exists_clique :
  ?budget:int -> adj:(int -> int -> bool) -> n:int -> k:int -> unit -> verdict
(** [exists_clique ~adj ~n ~k ()] decides whether the graph has a clique
    of [k] vertices.  [budget] defaults to [200_000] expansions. *)

val exists_cluster : Bwc_metric.Space.t -> k:int -> l:float -> verdict
(** The clustering question on a space, via the threshold graph, with
    the default budget of [200_000] expansions. *)

(* bwclint: allow test-only-export -- reference oracle: the Bron-Kerbosch maximum clique test/test_core.ml checks Algorithm 1 against *)
val max_clique_size :
  adj:(int -> int -> bool) -> n:int -> unit -> (int, [ `Budget of int ]) result
(** Exact maximum clique size, or [`Budget lower_bound] when the budget
    of [200_000] expansions ran out ([lower_bound] is the best clique
    found so far). *)
