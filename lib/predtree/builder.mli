(** Node-addition machinery for the prediction tree (Sec. II-D).

    To add host [x]: pick a {e base} leaf [z], pick the {e end} node [y]
    maximising the Gromov product [(x|y)_z], place [x]'s inner node on the
    path [z ~ y] at distance [(x|y)_z] from [z], and hang [x] off it with
    edge weight [(y|z)_x].

    Two end-node search strategies are provided:
    - [`Exact]: argmax over every present host — what a centralised
      builder with full measurements would do;
    - [`Anchor_guided budget]: budgeted best-first search over the
      anchor tree, the decentralised strategy of the authors' prediction
      framework: it only measures against the hosts it visits, at most
      [budget] expansions. *)

type base_strategy = [ `Root | `Random ]
type end_strategy = [ `Exact | `Anchor_guided of int ]
(** [`Anchor_guided budget] expands at most [budget] anchor-tree hosts. *)

val gromov : d:(int -> int -> float) -> x:int -> y:int -> z:int -> float
(** [(x|y)_z = (d z x + d z y - d x y) / 2]. *)

type outcome = {
  base : int;
  end_node : int;
  measurements : int;  (** pairwise measurements charged to this addition *)
}

val add_host :
  d:(int -> int -> float) ->
  rng:Bwc_stats.Rng.t ->
  base:base_strategy ->
  strategy:end_strategy ->
  tree:Tree.t ->
  anchor:Anchor.t ->
  labels:(int, Label.t) Hashtbl.t ->
  int ->
  outcome
(** Performs the full addition of one host: updates [tree], [anchor] and
    [labels].  The first two hosts are handled specially (root, then the
    root's single child). *)
