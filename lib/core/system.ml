module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset
module Ensemble = Bwc_predtree.Ensemble

type t = {
  seed : int;
  dataset : Dataset.t;
  c : float;
  fw : Ensemble.t;
  protocol : Protocol.t;
  classes : Classes.t;
  rng : Rng.t; (* for random submission points *)
  mutable index : Find_cluster.Index.t option; (* lazy centralized index *)
}

let create ?(seed = 1) ?(c = Bwc_metric.Bandwidth.default_c) ?n_cut ?(class_count = 8)
    ?classes ?mode ?ensemble_size ?aggregation_rounds ?detector dataset =
  let rng = Rng.create seed in
  let space = Dataset.metric ~c dataset in
  let fw = Ensemble.build ~rng:(Rng.split rng) ?mode ?size:ensemble_size space in
  let classes =
    match classes with
    | Some cl -> cl
    | None -> Classes.of_percentiles ~c ~count:class_count dataset
  in
  let protocol = Protocol.create ~rng:(Rng.split rng) ?n_cut ?detector ~classes fw in
  let (_ : int) = Protocol.run_aggregation ?max_rounds:aggregation_rounds protocol in
  { seed; dataset; c; fw; protocol; classes; rng; index = None }

(* Persistence: bwc_persist decodes each layer (dataset, ensemble,
   protocol, optional index) and re-assembles the facade here.  No
   validation beyond what the layer decoders already did — this is pure
   plumbing. *)
let assemble ~seed ~dataset ~c ~fw ~protocol ~classes ~rng_state ~index =
  { seed; dataset; c; fw; protocol; classes; rng = Rng.of_state rng_state; index }

let seed t = t.seed
let rng_state t = Rng.state t.rng
let index_opt t = t.index
let dataset t = t.dataset
let framework t = t.fw
let protocol t = t.protocol
let classes t = t.classes
let c t = t.c
let size t = Dataset.size t.dataset

let predicted_space t =
  Bwc_metric.Space.make ~n:(size t) ~dist:(Ensemble.predicted t.fw)

let index t =
  match t.index with
  | Some i -> i
  | None ->
      let i = Find_cluster.Index.build (Bwc_metric.Space.cached (predicted_space t)) in
      t.index <- Some i;
      i

let query ?at t ~k ~b =
  let at = match at with Some a -> a | None -> Rng.int t.rng (size t) in
  Protocol.query_bandwidth t.protocol ~at ~k ~b

let query_centralized t ~k ~b =
  let l = Bwc_metric.Bandwidth.to_distance ~c:t.c b in
  Find_cluster.Index.find (index t) ~k ~l

let real_bw t i j = Dataset.bw t.dataset i j
let predicted_bw t i j = Ensemble.predicted_bw ~c:t.c t.fw i j

let verify_cluster t ~b cluster =
  let rec pairs acc = function
    | [] -> acc
    | x :: rest ->
        let acc =
          List.fold_left (fun a y -> if real_bw t x y < b then (x, y) :: a else a) acc rest
        in
        pairs acc rest
  in
  List.rev (pairs [] cluster)

let find_feeder t ~targets =
  Node_search.best_bw ~c:t.c (predicted_space t) ~targets

let refresh ?(drift = 0.1) ~seed t =
  let rng = Rng.create seed in
  let dataset = Bwc_dataset.Noise.relative_clamp ~rng ~amplitude:drift t.dataset in
  create ~seed:t.seed ~c:t.c ~n_cut:(Protocol.n_cut t.protocol)
    ~ensemble_size:(Ensemble.size t.fw) ~classes:t.classes dataset
