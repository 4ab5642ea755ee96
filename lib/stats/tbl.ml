(* Deterministic traversal helpers for [Stdlib.Hashtbl].

   [Hashtbl.iter]/[Hashtbl.fold] visit bindings in bucket order, which
   depends on the hash function and resize history — letting that order
   reach protocol state, counters or reports silently breaks the
   bit-for-bit determinism contract the simulator relies on (see
   DESIGN.md, "Determinism contract").  These wrappers traverse in
   sorted key order instead; `bwclint`'s [no-unordered-hashtbl-iter]
   rule points offenders here.

   Only the most-recent binding of each key is visited (shadowed
   bindings created with [Hashtbl.add] are skipped). *)

let keys t =
  (* The one audited raw traversal: key collection is order-independent
     because the result is sorted (and deduplicated) before use. *)
  (* bwclint: allow no-unordered-hashtbl-iter -- key collection is order-independent: the result is sorted and deduplicated before any use *)
  Hashtbl.fold (fun k _ acc -> k :: acc) t []

let sorted_keys t = List.sort_uniq Stdlib.compare (keys t)

let iter_sorted f t =
  List.iter
    (fun k -> match Hashtbl.find_opt t k with Some v -> f k v | None -> ())
    (sorted_keys t)

let fold_sorted f t init =
  List.fold_left
    (fun acc k ->
      match Hashtbl.find_opt t k with Some v -> f k v acc | None -> acc)
    init
    (sorted_keys t)
