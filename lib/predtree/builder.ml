type base_strategy = [ `Root | `Random ]
type end_strategy = [ `Exact | `Anchor_guided of int ]

let gromov ~d ~x ~y ~z = (d z x +. d z y -. d x y) /. 2.0

type placement = {
  anchor_host : int;
  offset : float;
  leaf : float;
  measurements : int;
}

let select_end ~d ~anchor ~strategy ~x ~z ~candidates =
  let measured = ref 0 in
  let score y =
    measured := !measured + 1;
    gromov ~d ~x ~y ~z
  in
  match strategy with
  | `Exact ->
      let best = ref None in
      List.iter
        (fun y ->
          if y <> z && y <> x then begin
            let g = score y in
            match !best with
            | Some (_, bg) when bg >= g -> ()
            | _ -> best := Some (y, g)
          end)
        candidates;
      (match !best with
      | Some (y, _) -> (y, !measured)
      | None -> invalid_arg "Builder.select_end: no candidate")
  | `Anchor_guided budget ->
      (* Budgeted best-first search over the anchor tree.  A plain greedy
         descent stalls on Gromov-product plateaus (every host whose path
         from the base diverges from [x] at the same point ties), so we
         expand the most promising frontier host until the measurement
         budget is spent, returning the best host seen.  Each expansion
         costs one measurement of [d x _], which is exactly what a real
         joining node would probe. *)
      let root = Anchor.root anchor in
      let eval y = if y = z || y = x then Float.neg_infinity else score y in
      (* Frontier as a sorted association list: tiny compared to n. *)
      let best_host = ref root and best_g = ref (eval root) in
      let frontier = ref [ (!best_g, root) ] in
      let expansions = ref 0 in
      let pop () =
        match !frontier with
        | [] -> None
        | (g, h) :: rest ->
            frontier := rest;
            Some (g, h)
      in
      let push g h =
        let rec ins = function
          | [] -> [ (g, h) ]
          | (g', h') :: rest when g' > g -> (g', h') :: ins rest
          | l -> (g, h) :: l
        in
        frontier := ins !frontier
      in
      let continue = ref true in
      while !continue do
        match pop () with
        | None -> continue := false
        | Some (_, h) ->
            incr expansions;
            if !expansions > budget then continue := false
            else
              List.iter
                (fun c ->
                  let g = eval c in
                  if g > !best_g || (Float.equal !best_g Float.neg_infinity && g > Float.neg_infinity)
                  then begin
                    best_g := g;
                    best_host := c
                  end;
                  if g > Float.neg_infinity then push g c)
                (Anchor.children anchor h)
      done;
      if Float.equal !best_g Float.neg_infinity then invalid_arg "Builder.select_end: no candidate"
      else (!best_host, !measured)

let place ~d ~rng ~base ~strategy ~tree ~anchor ~members x =
  match members with
  | [] -> invalid_arg "Builder.place: no member"
  | [ only ] ->
      let v = Tree.vertex_of_host tree only in
      let leaf = d only x in
      let _hv, _inner, anchor_host, offset =
        Tree.add_host tree ~host:x ~between:(v, v) ~at:0.0 ~leaf_weight:leaf
      in
      { anchor_host; offset; leaf; measurements = 1 }
  | _ :: _ :: _ ->
      let z =
        match base with
        | `Root -> Anchor.root anchor
        | `Random -> Bwc_stats.Rng.choose rng (Array.of_list members)
      in
      let y, m = select_end ~d ~anchor ~strategy ~x ~z ~candidates:members in
      let gp = gromov ~d ~x ~y ~z in
      let leaf = Float.max 0.0 (gromov ~d ~x:y ~y:z ~z:x) in
      let _hv, _inner, anchor_host, offset =
        Tree.add_host tree ~host:x
          ~between:(Tree.vertex_of_host tree z, Tree.vertex_of_host tree y)
          ~at:gp ~leaf_weight:leaf
      in
      (* +2 accounts for measuring x against the base and the end node
         during placement (already counted if the search touched them). *)
      { anchor_host; offset; leaf; measurements = m + 1 }
