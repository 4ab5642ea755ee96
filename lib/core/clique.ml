type verdict =
  | Feasible of int list
  | Infeasible
  | Unknown

let threshold_adjacency space ~l i j =
  i <> j && Bwc_metric.Space.dist space i j <= l

exception Found of int list
exception Budget_exhausted

(* Bron-Kerbosch with greedy pivoting over explicit candidate lists.  [r]
   is the clique under construction, [p] the candidates, [x] the excluded
   set.  Stops as soon as |r| reaches [k]; [worth r_size p_len] is the
   branch-and-bound prune (existence: can [k] still be reached; maximum:
   can the incumbent still be beaten). *)
let search ~adj ~k ~budget ~worth ~on_better p0 =
  let expansions = ref 0 in
  let rec bk r r_size p x =
    incr expansions;
    if !expansions > budget then raise Budget_exhausted;
    if r_size >= k then raise (Found r);
    on_better r r_size;
    if worth r_size (List.length p) then begin
      match (p, x) with
      | [], [] -> ()
      | _ ->
          (* pivot: candidate with most neighbors in p prunes best *)
          let pivot =
            let best = ref None in
            let consider u =
              let deg = List.length (List.filter (adj u) p) in
              match !best with
              | Some (_, d) when d >= deg -> ()
              | _ -> best := Some (u, deg)
            in
            List.iter consider p;
            List.iter consider x;
            !best
          in
          let expand =
            match pivot with
            | Some (u, _) -> List.filter (fun v -> not (adj u v)) p
            | None -> p
          in
          let p = ref p and x = ref x in
          List.iter
            (fun v ->
              bk (v :: r) (r_size + 1)
                (List.filter (adj v) !p)
                (List.filter (adj v) !x);
              p := List.filter (fun w -> w <> v) !p;
              x := v :: !x)
            expand
    end
  in
  bk [] 0 p0 []

(* recursive expansions before a search gives up *)
let default_budget = 200_000

let exists_clique ?(budget = default_budget) ~adj ~n ~k () =
  if k <= 0 then invalid_arg "Clique.exists_clique: k <= 0";
  if k = 1 then (if n >= 1 then Feasible [ 0 ] else Infeasible)
  else begin
    let vertices = List.init n (fun i -> i) in
    try
      search ~adj ~k ~budget
        ~worth:(fun r_size p_len -> r_size + p_len >= k)
        ~on_better:(fun _ _ -> ())
        vertices;
      Infeasible
    with
    | Found r -> Feasible r
    | Budget_exhausted -> Unknown
  end

let exists_cluster space ~k ~l =
  exists_clique
    ~adj:(threshold_adjacency space ~l)
    ~n:space.Bwc_metric.Space.n ~k ()

let max_clique_size ~adj ~n () =
  if n = 0 then Ok 0
  else begin
    let best = ref 1 in
    let vertices = List.init n (fun i -> i) in
    try
      (* k = n + 1 can never be reached, so the search runs to completion;
         [best] tracks the incumbent and prunes branches that cannot beat
         it. *)
      search ~adj ~k:(n + 1) ~budget:default_budget
        ~worth:(fun r_size p_len -> r_size + p_len > !best)
        ~on_better:(fun _ size -> if size > !best then best := size)
        vertices;
      Ok !best
    with
    | Found _ -> assert false
    | Budget_exhausted -> Error (`Budget !best)
  end
