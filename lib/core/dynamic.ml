module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset
module Ensemble = Bwc_predtree.Ensemble

type t = {
  rng : Rng.t;
  c : float;
  dataset : Dataset.t;
  fw : Ensemble.t; (* its measured space is the index universe *)
  protocol : Protocol.t;
  classes : Classes.t;
  mutable index : Find_cluster.Index.t option; (* lazy, then delta-maintained *)
}

(* detector/manual repairs evict members underneath us; the maintained
   index follows by delta instead of being rebuilt *)
let install_evict_hook t =
  Protocol.set_on_evict t.protocol (fun h ->
      match t.index with
      | Some idx when Find_cluster.Index.is_member idx h ->
          Find_cluster.Index.remove_host idx h
      | Some _ | None -> ())

let create ?(seed = 1) ?n_cut ?(class_count = 8) ?classes ?initial_members
    ?aggregation_rounds dataset =
  let c = Bwc_metric.Bandwidth.default_c in
  let rng = Rng.create seed in
  let fw =
    Ensemble.build ~rng:(Rng.split rng) ?members:initial_members (Dataset.metric ~c dataset)
  in
  let classes =
    match classes with
    | Some cl -> cl
    | None -> Classes.of_percentiles ~c ~count:class_count dataset
  in
  let protocol = Protocol.create ~rng:(Rng.split rng) ?n_cut ~classes fw in
  let (_ : int) = Protocol.run_aggregation ?max_rounds:aggregation_rounds protocol in
  let t = { rng; c; dataset; fw; protocol; classes; index = None } in
  install_evict_hook t;
  t

(* Persistence: bwc_persist decodes each layer and re-assembles here.
   The index universe is the restored ensemble's measured space, and the
   eviction hook is re-installed, so a restored system keeps maintaining
   its index by delta exactly like the original. *)
let assemble ~dataset ~c ~fw ~protocol ~classes ~rng_state ~index () =
  let t = { rng = Rng.of_state rng_state; c; dataset; fw; protocol; classes; index } in
  install_evict_hook t;
  t

let dataset t = t.dataset
let c t = t.c
let rng_state t = Rng.state t.rng
let index_opt t = t.index

let members t = Ensemble.members t.fw
let member_count t = Ensemble.member_count t.fw
let is_member t h = Ensemble.is_member t.fw h
let protocol t = t.protocol
let ensemble t = t.fw
let classes t = t.classes

let index t =
  match t.index with
  | Some i -> i
  | None ->
      let i = Find_cluster.Index.build_subset (Ensemble.space t.fw) (members t) in
      t.index <- Some i;
      i

(* apply one membership delta to the maintained index, if materialised
   (a not-yet-demanded index is simply built over the members of the
   moment it is first used) *)
let index_join t h =
  match t.index with
  | Some idx -> Find_cluster.Index.add_host idx h
  | None -> ()

let index_leave t h =
  match t.index with
  | Some idx -> Find_cluster.Index.remove_host idx h
  | None -> ()

(* membership + index deltas only, no restabilisation: the daemon's
   deferred path, where aggregation work is budgeted across ticks and a
   storm of events must not block behind reconvergence.  The protocol
   refreshes its topology when it is next read. *)
let apply_deferred t events =
  let applied = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Bwc_sim.Churn.Join h ->
          if not (is_member t h) then begin
            Ensemble.add_host ~rng:(Rng.split t.rng) t.fw h;
            index_join t h;
            incr applied
          end
      | Bwc_sim.Churn.Leave h ->
          if is_member t h && member_count t > 1 then begin
            Ensemble.remove_host ~rng:(Rng.split t.rng) t.fw h;
            index_leave t h;
            incr applied
          end)
    events;
  if !applied > 0 then Protocol.invalidate_topology t.protocol;
  !applied

let apply t events =
  if apply_deferred t events > 0 then begin
    let (_ : int) = Protocol.run_aggregation t.protocol in
    ()
  end

let run_scenario t ~churn ~rounds ~on_round =
  for epoch = 0 to rounds - 1 do
    apply t (Bwc_sim.Churn.events_at churn epoch);
    on_round epoch t
  done

(* the submission host is drawn as [Rng.choose] over the member list
   would draw it, without copying the list; churn can empty the member
   list, and an empty system answers a miss, it does not crash *)
let query ?at t ~k ~b =
  match at with
  | Some at -> Protocol.query_bandwidth t.protocol ~at ~k ~b
  | None ->
      let count = member_count t in
      if count = 0 then Query.no_members
      else
        Protocol.query_bandwidth t.protocol
          ~at:(Ensemble.member_at t.fw (Rng.int t.rng count))
          ~k ~b

let query_centralized t ~k ~b =
  let l = Bwc_metric.Bandwidth.to_distance ~c:t.c b in
  Find_cluster.Index.find (index t) ~k ~l

let verify_cluster t ~b cluster =
  let rec pairs acc = function
    | [] -> acc
    | x :: rest ->
        let acc =
          List.fold_left
            (fun a y -> if Dataset.bw t.dataset x y < b then (x, y) :: a else a)
            acc rest
        in
        pairs acc rest
  in
  List.rev (pairs [] cluster)

(* predictions exist only between members: the candidates are the
   members, in ascending host order, so ties resolve to the lowest id;
   their label distances are the ensemble's median predictions *)
let find_feeder t ~targets =
  let ms = Array.of_list (List.sort Int.compare (members t)) in
  let local = Array.make (Dataset.size t.dataset) (-1) in
  Array.iteri (fun i h -> local.(h) <- i) ms;
  let space =
    Node_info.space_of
      (Array.map (fun h -> Node_info.make ~host:h ~labels:(Ensemble.labels t.fw h)) ms)
  in
  Node_search.best space ~targets:(List.map (fun h -> local.(h)) targets) ~exclude:[]
  |> Option.map (fun (x, radius) ->
         (ms.(x), Bwc_metric.Bandwidth.of_distance ~c:t.c radius))
