(** Node-addition machinery for the prediction tree (Sec. II-D).

    To add host [x]: pick a {e base} leaf [z], pick the {e end} node [y]
    maximising the Gromov product [(x|y)_z], place [x]'s inner node on the
    path [z ~ y] at distance [(x|y)_z] from [z], and hang [x] off it with
    edge weight [(y|z)_x].

    Two end-node search strategies are provided:
    - [`Exact]: argmax over every member — what a centralised
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

type placement = {
  anchor_host : int;  (** owner of the edge the inner node landed on *)
  offset : float;  (** tree distance from the anchor host's vertex to the inner node *)
  leaf : float;  (** weight of the new leaf edge *)
  measurements : int;  (** pairwise measurements charged to this addition *)
}

val place :
  d:(int -> int -> float) ->
  rng:Bwc_stats.Rng.t ->
  base:base_strategy ->
  strategy:end_strategy ->
  tree:Tree.t ->
  anchor:Anchor.t ->
  members:int list ->
  int ->
  placement
(** Places a joining host into [tree], which must hold every one of
    [members] (ascending host ids; the anchor overlay holds exactly
    them).  The base, the end-node candidates and every measured host
    are members.  With a single member the host hangs directly off its
    vertex.  The caller derives the label and the overlay parent from
    the placement. *)
