(** Future-work extension (Sec. VI): given a set of hosts, find a single
    host with high bandwidth to {e all} of them — e.g. a data source to
    feed an already-chosen worker cluster.

    Under the rational transform this is the 1-center problem restricted
    to the given targets: minimise [max over s of d(x, s)]. *)

val best : n:int -> dist:(int -> int -> float) -> targets:int list -> (int * float) option
(** [best ~n ~dist ~targets] returns the point of [0 .. n-1], not a
    target, minimising the maximum of [dist x s] over the targets [s],
    with that distance; ties go to the lowest point.  [dist] is read
    only between candidates and targets, so a search costs
    [n * |targets|] distances.  [None] when no candidate exists or
    [targets] is empty.  Raises [Invalid_argument] for a target outside
    [0 .. n-1]. *)
