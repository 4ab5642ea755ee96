(** Distance labels (Sec. II-D).

    A host's distance label records its anchor chain — all anchor nodes on
    the path from the root to the host in the anchor tree — together with
    the geometry of each hop: where the host's inner node sits on its
    anchor's leaf edge, and the weight of its own leaf edge.  A label "is
    equivalent to a partial prediction tree", so the distance between two
    hosts is computable from their two labels alone, with no global state;
    this is what lets Algorithm 2 rank remote nodes by predicted distance
    locally.

    Entry [i] of a label describes anchor-chain member [w_{i+1}] (the root
    [w_0] is implicit and has an empty label):
    its inner node sits on the leaf edge of [w_i] at distance [offset]
    from the host [w_i], and its own leaf edge has weight [leaf].
    Invariant: [0 <= offset <= leaf of the previous entry] (the root's
    conceptual leaf edge has length 0, so first entries carry
    [offset = 0]). *)

type entry = {
  host : int;     (** the anchor-chain member this entry describes *)
  offset : float; (** distance from the previous anchor's host vertex to
                      this member's inner node, along that anchor's leaf
                      edge *)
  leaf : float;   (** weight of this member's own leaf edge *)
}

type t = entry array
(** Chain from just below the root down to the labelled host itself; the
    root's label is [[||]]. *)

val root : t

val extend : t -> host:int -> offset:float -> leaf:float -> t
(** [extend anchor_label ~host ~offset ~leaf] is the label of a node
    anchored under the host labelled by [anchor_label]. *)

val dist : t -> t -> float
(** Predicted tree distance between the two labelled hosts.  Exact: equals
    {!Tree.dist} on the tree both labels came from (property-tested). *)

val valid : t -> bool
(** Checks the geometric invariant above. *)
