type t = {
  host : int;
  labels : Bwc_predtree.Label.t array;
}

let make ~host ~labels = { host; labels }
let dist a b = Bwc_predtree.Ensemble.label_dist a.labels b.labels

(* each pair's label distance once, mirrored into a square unboxed
   matrix so a lookup is one index with no triangle arithmetic *)
let space_of infos =
  let m = Array.length infos in
  let d = Float.Array.make (m * m) 0.0 in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      let x = dist infos.(i) infos.(j) in
      Float.Array.set d ((i * m) + j) x;
      Float.Array.set d ((j * m) + i) x
    done
  done;
  Bwc_metric.Space.make ~n:m ~dist:(fun i j -> Float.Array.get d ((i * m) + j))

let compare_host a b = compare a.host b.host
