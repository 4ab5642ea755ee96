(** Cluster queries and results.

    A query asks for [k] hosts whose pairwise bandwidth is at least [b]
    (Sec. I); under the rational transform it becomes a
    distance-constrained query: [k] hosts with pairwise distance at most
    [l = C / b] (Sec. III). *)

type result = {
  cluster : int list option; (** the [k] hosts, or [None] when not found *)
  hops : int;                (** query forwardings (0 = answered where submitted) *)
  retries : int;             (** hop retransmissions spent on lossy links *)
  path : int list;           (** hosts visited, submission point first *)
}

val found : result -> bool
val not_found_at : int -> result
(** A miss that never left the submission node. *)

val no_members : result
(** A miss with an empty path: the system had no member to submit the
    query at. *)

val pp_result : Format.formatter -> result -> unit
