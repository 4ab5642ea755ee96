type t = {
  nl : int;
  nr : int;
  adj : int list array; (* left vertex -> right neighbors *)
  mutable edges : int;
}

let create ~left ~right =
  if left < 0 || right < 0 then invalid_arg "Bipartite.create";
  { nl = left; nr = right; adj = Array.make (Stdlib.max 1 left) []; edges = 0 }

let add_edge g u v =
  if u < 0 || u >= g.nl || v < 0 || v >= g.nr then invalid_arg "Bipartite.add_edge";
  g.adj.(u) <- v :: g.adj.(u);
  g.edges <- g.edges + 1

let infinity_dist = Stdlib.max_int

(* Hopcroft-Karp.  [match_l.(u)] / [match_r.(v)] hold the partner or -1. *)
let run_matching g =
  let match_l = Array.make (Stdlib.max 1 g.nl) (-1) in
  let match_r = Array.make (Stdlib.max 1 g.nr) (-1) in
  let dist = Array.make (Stdlib.max 1 g.nl) infinity_dist in
  let queue = Queue.create () in
  let bfs () =
    Queue.clear queue;
    for u = 0 to g.nl - 1 do
      if match_l.(u) = -1 then begin
        dist.(u) <- 0;
        Queue.add u queue
      end
      else dist.(u) <- infinity_dist
    done;
    let found = ref false in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          match match_r.(v) with
          | -1 -> found := true
          | u' ->
              if dist.(u') = infinity_dist then begin
                dist.(u') <- dist.(u) + 1;
                Queue.add u' queue
              end)
        g.adj.(u)
    done;
    !found
  in
  let rec dfs u =
    let rec try_neighbors = function
      | [] ->
          dist.(u) <- infinity_dist;
          false
      | v :: rest ->
          let ok =
            match match_r.(v) with
            | -1 -> true
            | u' -> dist.(u') = dist.(u) + 1 && dfs u'
          in
          if ok then begin
            match_l.(u) <- v;
            match_r.(v) <- u;
            true
          end
          else try_neighbors rest
    in
    try_neighbors g.adj.(u)
  in
  let size = ref 0 in
  while bfs () do
    for u = 0 to g.nl - 1 do
      if match_l.(u) = -1 && dfs u then incr size
    done
  done;
  (!size, match_l, match_r)

let max_matching g =
  let size, _, _ = run_matching g in
  size

let max_independent_set g =
  let _, match_l, match_r = run_matching g in
  (* König: from every unmatched left vertex, alternate non-matching edges
     (left to right) and matching edges (right to left).  The minimum
     vertex cover is (unvisited lefts) + (visited rights); the MIS is its
     complement. *)
  let vis_l = Array.make (Stdlib.max 1 g.nl) false in
  let vis_r = Array.make (Stdlib.max 1 g.nr) false in
  let rec explore u =
    if not vis_l.(u) then begin
      vis_l.(u) <- true;
      List.iter
        (fun v ->
          if match_l.(u) <> v && not vis_r.(v) then begin
            vis_r.(v) <- true;
            match match_r.(v) with
            | -1 -> ()
            | u' -> explore u'
          end)
        g.adj.(u)
    end
  in
  for u = 0 to g.nl - 1 do
    if match_l.(u) = -1 then explore u
  done;
  let in_left = Array.init g.nl (fun u -> vis_l.(u)) in
  let in_right = Array.init g.nr (fun v -> not vis_r.(v)) in
  (in_left, in_right)
