(** The decentralized bandwidth prediction framework (Sec. II-D), i.e. the
    substrate the clustering system runs on: a prediction tree plus the
    anchor-tree overlay plus per-host distance labels.

    [build] simulates hosts joining one at a time in a random order,
    exactly as the real system would grow; all predicted distances are
    then pure functions of the distance labels, so every later consumer
    (Algorithms 2-4) only uses information a real node would hold
    locally. *)

type mode = {
  base : Builder.base_strategy;      (** how each joining host picks its base leaf *)
  end_search : Builder.end_strategy; (** how it finds the Gromov maximiser *)
}

val default_mode : mode
(** [`Random] base, budgeted [`Anchor_guided] end search: the
    decentralised configuration. *)

val centralized_mode : mode
(** [`Root] base, [`Exact] end search: what a centralised Sequoia-style
    builder does; used by the E8 ablation. *)

type t

val build :
  rng:Bwc_stats.Rng.t ->
  ?mode:mode ->
  ?members:int list ->
  ?metrics:Bwc_obs.Registry.t ->
  ?metric_labels:(string * string) list ->
  Bwc_metric.Space.t ->
  t
(** [build ~rng ~mode ~members space] inserts the member hosts (default:
    all [space.n] hosts) in a random order.  [space] provides the
    {e measured} distances (already under the rational transform).
    Construction and maintenance cost is charged to the
    [predtree.measurements] counter in [metrics] (a private registry when
    omitted), under [metric_labels] — e.g. [("tree", "0")] keeps the
    trees of an ensemble apart when they share one registry. *)

val size : t -> int
(** Current member count. *)

val members : t -> int list
(** Current members in insertion order (root first). *)

val member_at : t -> int -> int
(** [member_at t i] is element [i] of {!members}, found without copying
    the member list; raises [Invalid_argument] unless [0 <= i < size t]. *)

val is_member : t -> int -> bool
val tree : t -> Tree.t
val anchor : t -> Anchor.t
val label : t -> int -> Label.t

val predicted : t -> int -> int -> float
(** Predicted distance [d_T(i, j)], computed from the two labels. *)

val measurements_total : t -> int
(** Total pairwise measurements charged during construction and
    maintenance — the cost the framework saves compared to full n-to-n
    probing ([predtree.measurements] under this framework's labels). *)

val add_host : rng:Bwc_stats.Rng.t -> t -> int -> unit
(** A host joins the system: it is placed into the prediction tree and the
    anchor overlay exactly as during [build], measuring members only.  A
    ghost of the host (see {!evict_host}) revives instead: it keeps its
    vertex and label, measures nothing, and hangs in the overlay under
    the nearest member up its label chain, or else under the overlay
    root.  A newcomer placed on a ghost's edge extends the ghost's label
    and hangs in the overlay the same way.  The host must be a point of
    the underlying space and not yet a member. *)

val evict_host : t -> int -> (int * int) list
(** The one way a host leaves, gracefully or after a crash, without a
    rebuild.  Membership and the label are removed and the anchor
    overlay is repaired locally with {!Anchor.remove_node} (orphaned
    children regraft to the grandparent; a dead root promotes its
    smallest child).  In the prediction tree the host is spliced out
    when no placement depends on it; otherwise it stays as a {e ghost}
    whose vertex and edges keep every surviving label valid (labels stay
    bit-identical).  A ghost whose last dependent is spliced out is
    spliced too, up the label chain, so every ghost lies on some
    member's chain.  Returns the [(child, new_parent)] overlay
    regrafts.  Evicting a non-member or the last member raises
    [Invalid_argument]. *)

val anchor_neighbors : t -> int -> int list
(** Overlay neighborhood of a host. *)

(** {2 Persistence} *)

type dump = {
  d_mode : mode;
  d_tree : Tree.dump;
  d_anchor : Anchor.dump;
  d_labels : (int * Label.t) list;  (** ascending host id *)
  d_rev_order : int list;  (** reverse insertion order, newest first *)
}

val dump : t -> dump

val of_dump :
  ?metrics:Bwc_obs.Registry.t ->
  ?metric_labels:(string * string) list ->
  Bwc_metric.Space.t ->
  dump ->
  t
(** Reconstructs the framework over [space] (the measured metric the dump
    was built on; the dump itself carries no distance function).  The
    measurement counter restarts at zero — a restore performs no probes.
    Validates label geometry, the agreement of membership across labels,
    overlay and insertion order, and that the tree names exactly the
    members and the hosts on their label chains (a ghost's label is read
    off those chains); raises [Invalid_argument] on any violation. *)
