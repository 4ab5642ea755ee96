(** The prediction tree: a growable edge-weighted tree whose leaves are
    hosts and whose inner nodes are created by node additions (Sec. II-D).

    Every edge remembers its {e owner}: the host whose addition created it.
    When an edge is split by a later insertion both halves keep the owner;
    this is exactly the information needed to define anchor nodes ("the
    node that was previously added along with the edge that the new node's
    inner node is located on").

    Vertices are identified by dense integer ids.  Distances are exact path
    sums; the tree is small (at most [2n] vertices for [n] hosts) so the
    O(tree) traversals here are never a bottleneck — hot paths use
    {!Label} distances instead. *)

type t

type vertex = int

type kind =
  | Host of int  (** a participating host, identified by its host id *)
  | Inner        (** an attachment point created by an insertion *)

val create : unit -> t

val add_first_host : t -> host:int -> vertex
(** Initialises the tree with its first (root) host.  Must be called
    exactly once, first. *)

val add_host :
  t -> host:int -> between:vertex * vertex -> at:float -> leaf_weight:float ->
  vertex * vertex * int * float
(** [add_host t ~host ~between:(z, y) ~at ~leaf_weight] places the new
    host's inner node on the path from [z] to [y] at distance [at] from
    [z] (clamped into [[0, dist z y]]), splitting the edge it lands on, and
    hangs the host leaf off it with [leaf_weight] (clamped to
    non-negative).  With a single-vertex tree (only the root host), [at]
    is ignored and the host is attached directly to the root with the
    root as its inner node.

    Returns [(host_vertex, inner_vertex, anchor_host, anchor_offset)]
    where [anchor_host] owns the edge the inner node landed on (the root
    host for the second insertion) and [anchor_offset] is the tree
    distance from the anchor host's own vertex to the inner node. *)

val remove_host : t -> host:int -> (unit, [ `Has_dependents ]) result
(** Removes a host leaf and splices out its inner node.  Fails with
    [`Has_dependents] if other subtrees are attached to edges this host
    owns (their anchor would dangle); the caller then falls back to a
    rebuild.  Removing the root host is also refused this way. *)

val vertex_of_host : t -> int -> vertex
(** Raises [Not_found] for unknown hosts. *)

val hosts : t -> int list
(** All host ids currently in the tree. *)

(* bwclint: allow test-only-export -- reference model: test/prop.ml grows exact tree metrics through Tree (tree_metric_space) *)
val vertex_count : t -> int

val dist : t -> vertex -> vertex -> float
(** Exact path-sum distance. *)

(* bwclint: allow test-only-export -- reference oracle: the exact tree distance test/prop.ml, test/test_core.ml and test/test_predtree.ml check label distances against *)
val host_dist : t -> int -> int -> float
(** [dist] between two hosts' vertices. *)

val is_tree : t -> bool
(** Structural sanity: connected and acyclic (used by tests). *)

(** {2 Persistence}

    A structural dump of the geometry, exact enough that
    [of_dump (dump t)] is indistinguishable from [t]: edge slots keep
    their ids (dead slots included, preserving adjacency-list order) and
    the host map is dumped separately from the vertex kinds (a crash
    eviction can orphan a [Host] kind).  All floats round-trip exactly
    when the caller serializes them losslessly. *)

type edge_dump = {
  e_a : vertex;
  e_b : vertex;
  e_weight : float;
  e_owner : int;
  e_live : bool;
}

type dump = {
  d_kinds : int array;  (** host id per vertex; [-1] = inner *)
  d_edges : edge_dump list;  (** in edge-id order, dead slots included *)
  d_hosts : (int * vertex) list;  (** host -> vertex, ascending host id *)
}

val dump : t -> dump

val of_dump : dump -> t
(** Validates vertex ranges, edge weights, host-map consistency and
    treeness; raises [Invalid_argument] on any violation (a corrupt
    snapshot must never build a broken tree). *)

val to_dot : ?label:string -> t -> string
(** Graphviz rendering of the live tree: hosts as boxes, inner nodes as
    points, edges annotated with weight and owner. *)
