type t = {
  host : int;
  labels : Bwc_predtree.Label.t array;
}

let make ~host ~labels = { host; labels }
let dist a b = Bwc_predtree.Ensemble.label_dist a.labels b.labels

let space_of infos =
  Bwc_metric.Space.make ~n:(Array.length infos) ~dist:(fun i j -> dist infos.(i) infos.(j))

let compare a b =
  match Int.compare a.host b.host with 0 -> Stdlib.compare a.labels b.labels | c -> c
