module Coord = Bwc_vivaldi.Coord

let dist points i j = Coord.dist points.(i) points.(j)

let lens_members ~points ~p ~q =
  let r = dist points p q in
  let n = Array.length points in
  let members = ref [] in
  for x = n - 1 downto 0 do
    if dist points x p <= r && dist points x q <= r then members := x :: !members
  done;
  !members

(* Largest subset of the lens of (p, q) with pairwise distance <= r,
   via the bipartite MIS construction. *)
let best_in_lens ~points ~p ~q =
  let r = dist points p q in
  let members = Array.of_list (lens_members ~points ~p ~q) in
  (* Split along the line pq; points on the line join the "upper" side. *)
  let pp = points.(p) and qq = points.(q) in
  let side x =
    let v = Coord.sub qq pp and w = Coord.sub points.(x) pp in
    (v.Coord.x *. w.Coord.y) -. (v.Coord.y *. w.Coord.x) >= 0.0
  in
  let upper = Array.of_list (List.filter side (Array.to_list members)) in
  let lower = Array.of_list (List.filter (fun x -> not (side x)) (Array.to_list members)) in
  let g = Bipartite.create ~left:(Array.length upper) ~right:(Array.length lower) in
  Array.iteri
    (fun iu u ->
      Array.iteri (fun il lo -> if dist points u lo > r then Bipartite.add_edge g iu il) lower)
    upper;
  let in_up, in_lo = Bipartite.max_independent_set g in
  let chosen = ref [] in
  Array.iteri (fun il lo -> if in_lo.(il) then chosen := lo :: !chosen) lower;
  Array.iteri (fun iu u -> if in_up.(iu) then chosen := u :: !chosen) upper;
  !chosen

let sorted_pairs points =
  let n = Array.length points in
  let pairs = Array.make (n * (n - 1) / 2) (0, 0, 0.0) in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      pairs.(!pos) <- (i, j, dist points i j);
      incr pos
    done
  done;
  Array.sort (fun (_, _, a) (_, _, b) -> compare a b) pairs;
  pairs

let diameter points cluster =
  let rec loop acc = function
    | [] -> acc
    | x :: rest ->
        let acc = List.fold_left (fun a y -> Float.max a (dist points x y)) acc rest in
        loop acc rest
  in
  loop 0.0 cluster

let rec take k = function
  | [] -> []
  | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest

let index_pairs points =
  let n = Array.length points in
  let pairs = Array.make (n * (n - 1) / 2) (0, 0, 0.0) in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      pairs.(!pos) <- (i, j, dist points i j);
      incr pos
    done
  done;
  pairs

(* Pairs are scanned in index order (see Find_cluster for why the order
   matters on imperfect embeddings); only pairs within the constraint are
   examined. *)
let find_cluster ~points ~k ~l =
  if k < 2 then invalid_arg "Kdiam.find_cluster: k < 2";
  let n = Array.length points in
  if n < k then None
  else begin
    let pairs = index_pairs points in
    let result = ref None in
    (try
       Array.iter
         (fun (p, q, r) ->
           if r <= l && List.length (lens_members ~points ~p ~q) >= k then begin
             let best = best_in_lens ~points ~p ~q in
             if List.length best >= k then begin
               let cluster = take k best in
               (* Guard against floating-point side-assignment artifacts:
                  accept only if the diameter constraint really holds. *)
               if diameter points cluster <= l *. (1.0 +. 1e-9) then begin
                 result := Some cluster;
                 raise Exit
               end
             end
           end)
         pairs
     with Exit -> ());
    !result
  end

let max_cluster_size ~points ~l =
  let n = Array.length points in
  if n = 0 then 0
  else begin
    let pairs = sorted_pairs points in
    let best = ref 1 in
    (try
       Array.iter
         (fun (p, q, r) ->
           if r > l then raise Exit;
           if List.length (lens_members ~points ~p ~q) > !best then begin
             let cand = best_in_lens ~points ~p ~q in
             let size = List.length cand in
             if size > !best && diameter points cand <= l *. (1.0 +. 1e-9) then best := size
           end)
         pairs
     with Exit -> ());
    !best
  end

module Index = struct
  type t = {
    points : Coord.t array;
    by_index : (int * int * float) array;
  }

  let build points = { points; by_index = index_pairs points }

  let find t ~k ~l =
    if k < 2 then invalid_arg "Kdiam.Index.find: k < 2";
    let points = t.points in
    if Array.length points < k then None
    else begin
      let result = ref None in
      (try
         Array.iter
           (fun (p, q, r) ->
             if r <= l && List.length (lens_members ~points ~p ~q) >= k then begin
               let best = best_in_lens ~points ~p ~q in
               if List.length best >= k then begin
                 let cluster = take k best in
                 if diameter points cluster <= l *. (1.0 +. 1e-9) then begin
                   result := Some cluster;
                   raise Exit
                 end
               end
             end)
           t.by_index
       with Exit -> ());
      !result
    end
end
