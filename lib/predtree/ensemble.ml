module Rng = Bwc_stats.Rng
module Space = Bwc_metric.Space

type t = {
  space : Space.t;
  frameworks : Framework.t array;
}

let default_size = 3

let build ~rng ?mode ?(size = default_size) ?members ?metrics space =
  if size < 1 then invalid_arg "Ensemble.build: size < 1";
  {
    space;
    frameworks =
      Array.init size (fun i ->
          Framework.build ~rng:(Rng.split rng) ?mode ?members ?metrics
            ~metric_labels:[ ("tree", string_of_int i) ]
            space);
  }

let size t = Array.length t.frameworks
let hosts t = t.space.Space.n
let space t = t.space
let members t = Framework.members t.frameworks.(0)
let member_count t = Framework.size t.frameworks.(0)
let member_at t i = Framework.member_at t.frameworks.(0) i
let is_member t h = Framework.is_member t.frameworks.(0) h

let add_host ~rng t h = Array.iter (fun fw -> Framework.add_host ~rng fw h) t.frameworks

(* every tree evicts; the primary's regrafts describe the overlay the
   protocols run on *)
let evict_host t h =
  let primary_regrafts = ref [] in
  Array.iteri
    (fun i fw ->
      let regrafts = Framework.evict_host fw h in
      if i = 0 then primary_regrafts := regrafts)
    t.frameworks;
  !primary_regrafts
let primary t = t.frameworks.(0)
let frameworks t = Array.copy t.frameworks

let labels t host = Array.map (fun fw -> Framework.label fw host) t.frameworks

(* Median of the tree-wise values, sorted in place: an insertion sort on
   the unboxed array, since an ensemble holds a handful of trees. *)
let median a =
  let m = Float.Array.length a in
  for i = 1 to m - 1 do
    let x = Float.Array.get a i in
    let j = ref (i - 1) in
    while !j >= 0 && Float.compare (Float.Array.get a !j) x > 0 do
      Float.Array.set a (!j + 1) (Float.Array.get a !j);
      decr j
    done;
    Float.Array.set a (!j + 1) x
  done;
  if m land 1 = 1 then Float.Array.get a (m / 2)
  else (Float.Array.get a ((m / 2) - 1) +. Float.Array.get a (m / 2)) /. 2.0

let label_dist la lb =
  let m = Array.length la in
  if m <> Array.length lb then invalid_arg "Ensemble.label_dist: label arity mismatch";
  let a = Float.Array.create m in
  for i = 0 to m - 1 do
    Float.Array.set a i (Label.dist la.(i) lb.(i))
  done;
  median a

let predicted t i j =
  let a = Float.Array.create (size t) in
  Array.iteri (fun k fw -> Float.Array.set a k (Framework.predicted fw i j)) t.frameworks;
  median a

let predicted_space t = Space.make ~n:(hosts t) ~dist:(predicted t)

let measured t i j = Space.dist t.space i j

let anchor_neighbors t h = Framework.anchor_neighbors (primary t) h

let measurements_total t =
  Array.fold_left (fun acc fw -> acc + Framework.measurements_total fw) 0 t.frameworks

(* ----- persistence ----- *)

type dump = Framework.dump array

let dump t = Array.map Framework.dump t.frameworks

let of_dump ?metrics space (d : dump) =
  if Array.length d < 1 then invalid_arg "Ensemble.of_dump: empty ensemble";
  let frameworks =
    Array.mapi
      (fun i fd ->
        Framework.of_dump ?metrics ~metric_labels:[ ("tree", string_of_int i) ] space fd)
      d
  in
  let primary_members = List.sort compare (Framework.members frameworks.(0)) in
  Array.iter
    (fun fw ->
      if List.sort compare (Framework.members fw) <> primary_members then
        invalid_arg "Ensemble.of_dump: trees disagree on membership")
    frameworks;
  { space; frameworks }

let relative_errors ?c t =
  let mem = Array.of_list (members t) in
  let m = Array.length mem in
  let out = Array.make (Stdlib.max 1 (m * (m - 1) / 2)) 0.0 in
  let pos = ref 0 in
  for a = 0 to m - 1 do
    for b = a + 1 to m - 1 do
      let i = mem.(a) and j = mem.(b) in
      let real = Bwc_metric.Bandwidth.of_distance ?c (measured t i j) in
      let pred = Bwc_metric.Bandwidth.of_distance ?c (predicted t i j) in
      out.(!pos) <- Float.abs (real -. pred) /. real;
      incr pos
    done
  done;
  Array.sub out 0 !pos
