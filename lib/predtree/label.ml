type entry = {
  host : int;
  offset : float;
  leaf : float;
}

type t = entry array

let root = [||]

let extend label ~host ~offset ~leaf =
  Array.append label [| { host; offset; leaf } |]

(* Distance from the labelled host up to the inner node of entry [i]:
   climb the own leaf edge, then hop from inner node to inner node along
   each intermediate anchor's leaf edge. *)
let descent label i =
  let m = Array.length label in
  let acc = ref label.(m - 1).leaf in
  for k = m - 2 downto i do
    acc := !acc +. (label.(k).leaf -. label.(k + 1).offset)
  done;
  !acc

let common_prefix la lb =
  let m = Int.min (Array.length la) (Array.length lb) in
  let rec loop i = if i < m && la.(i).host = lb.(i).host then loop (i + 1) else i in
  loop 0

let dist la lb =
  let ma = Array.length la and mb = Array.length lb in
  let j = common_prefix la lb in
  if j = ma && j = mb then 0.0
  else if j = ma then lb.(j).offset +. descent lb j
  else if j = mb then la.(j).offset +. descent la j
  else descent la j +. descent lb j +. Float.abs (la.(j).offset -. lb.(j).offset)

let valid label =
  let ok = ref true in
  Array.iteri
    (fun i e ->
      if e.offset < 0.0 || e.leaf < 0.0 then ok := false;
      let parent_leaf = if i = 0 then 0.0 else label.(i - 1).leaf in
      if e.offset > parent_leaf +. 1e-6 then ok := false)
    label;
  !ok
