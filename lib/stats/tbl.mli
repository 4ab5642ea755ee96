(** Deterministic traversal helpers for [Stdlib.Hashtbl].

    [Hashtbl] iteration order depends on hashing and resize history;
    these wrappers visit bindings in sorted key order so traversal
    results are reproducible run-to-run.  The [no-unordered-hashtbl-iter]
    lint rule (see [bin/bwclint.ml]) directs offending call sites here.

    Only the most-recent binding of each key is visited; keys are
    ordered by [Stdlib.compare]. *)

val sorted_keys : ('k, 'v) Hashtbl.t -> 'k list
(** Distinct keys in ascending order. *)

val iter_sorted : ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter_sorted f t] applies [f] to each binding in ascending key order. *)

val fold_sorted :
  ('k -> 'v -> 'acc -> 'acc) ->
  ('k, 'v) Hashtbl.t ->
  'acc ->
  'acc
(** [fold_sorted f t init] folds over bindings in ascending key order. *)
