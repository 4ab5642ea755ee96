(** The anchor tree: the rooted, unweighted overlay that hosts organise
    themselves into (Sec. II-D).

    The first host is the root; every later host becomes a child of its
    anchor node.  The clustering protocols (Algorithms 2-4) run over the
    edges of this tree: a node's overlay neighbors are its anchor parent
    and its anchor children. *)

type t

val create : unit -> t
val set_root : t -> int -> unit
(** Must be called once, before any [add]. *)

val add : t -> parent:int -> int -> unit
(** [add t ~parent h] attaches host [h] under [parent].  [parent] must be
    present already; [h] must not. *)

val remove_node : t -> int -> ((int * int) list, [ `Last_host ]) result
(** Crash repair: removes a (possibly interior) host, re-grafting each
    orphaned child to the host's own parent — the grandparent.  A dead
    root promotes its smallest child to root and regrafts the remaining
    children beneath it.  Returns the [(child, new_parent)] regrafts in
    ascending child order; [`Last_host] when the host is the only one
    left.  Unknown hosts raise [Invalid_argument]. *)

val root : t -> int
val mem : t -> int -> bool
val parent : t -> int -> int option
(** [None] for the root. *)

val children : t -> int -> int list
val neighbors : t -> int -> int list
(** Parent (if any) plus children: the overlay neighborhood. *)

val depth : t -> int -> int
(** Hops from the root. *)

val max_depth : t -> int

val hosts : t -> int list

(** {2 Persistence} *)

type dump = {
  d_root : int option;
  d_nodes : (int * int list) list;
      (** host -> children in stored order, ascending host id.  Child
          order is significant: overlay neighbor order (and everything
          downstream of it) derives from it. *)
}

val dump : t -> dump

val of_dump : dump -> t
(** Validates rootedness, unique parentage and acyclicity; raises
    [Invalid_argument] on any violation. *)

val to_dot : ?label:string -> t -> string
(** Graphviz rendering of the anchor overlay (a rooted tree of hosts). *)
