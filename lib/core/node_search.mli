(** Future-work extension (Sec. VI): given a set of hosts, find a single
    host with high bandwidth to {e all} of them — e.g. a data source to
    feed an already-chosen worker cluster.

    Under the rational transform this is the 1-center problem restricted
    to the given targets: minimise [max over s of d(x, s)]. *)

val best :
  Bwc_metric.Space.t -> targets:int list -> exclude:int list -> (int * float) option
(** [best space ~targets ~exclude] returns the host (not a target, not
    excluded) minimising the maximum distance to the targets, with that
    distance.  [None] when no candidate exists or [targets] is empty. *)
