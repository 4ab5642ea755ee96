module Rng = Bwc_stats.Rng

type params = {
  routers : int;
  core_weight_lo : float;
  core_weight_hi : float;
  access_mu : float;
  access_sigma : float;
}

let default_params =
  {
    routers = 24;
    core_weight_lo = 1.0;
    core_weight_hi = 40.0;
    access_mu = 4.6;
    access_sigma = 0.7;
  }

(* Router topology: random recursive tree (router r > 0 attaches to a
   uniform earlier router), which yields realistic skewed degrees. *)
let build_routers ~rng p =
  let parent = Array.make p.routers (-1) in
  let weight = Array.make p.routers 0.0 in
  for r = 1 to p.routers - 1 do
    parent.(r) <- Rng.int rng r;
    let log_lo = log p.core_weight_lo and log_hi = log p.core_weight_hi in
    weight.(r) <- exp (Rng.uniform rng log_lo log_hi)
  done;
  (parent, weight)

(* Distance between routers via root paths: depth arrays are tiny, so the
   naive LCA walk is fine. *)
let router_distances ~parent ~weight routers =
  let dist_to_root = Array.make routers 0.0 in
  let depth = Array.make routers 0 in
  for r = 1 to routers - 1 do
    dist_to_root.(r) <- dist_to_root.(parent.(r)) +. weight.(r);
    depth.(r) <- depth.(parent.(r)) + 1
  done;
  let dist a b =
    let rec lca a b =
      if a = b then a
      else if depth.(a) >= depth.(b) then lca parent.(a) b
      else lca a parent.(b)
    in
    let l = lca a b in
    dist_to_root.(a) +. dist_to_root.(b) -. (2.0 *. dist_to_root.(l))
  in
  dist

let distance_matrix ~rng ?(params = default_params) ~n () =
  if params.routers < 1 then invalid_arg "Hier_tree: routers < 1";
  let parent, weight = build_routers ~rng params in
  let router_dist = router_distances ~parent ~weight params.routers in
  let host_router = Array.init n (fun _ -> Rng.int rng params.routers) in
  let host_access =
    Array.init n (fun _ -> Rng.log_normal rng ~mu:params.access_mu ~sigma:params.access_sigma)
  in
  Bwc_metric.Dmatrix.of_fun n ~diag:0.0 (fun i j ->
      host_access.(i) +. router_dist host_router.(i) host_router.(j) +. host_access.(j))

let generate ~rng ?params ~n ~name () =
  let dm = distance_matrix ~rng ?params ~n () in
  let bwm =
    Bwc_metric.Dmatrix.of_fun n ~diag:Float.infinity (fun i j ->
        Bwc_metric.Bandwidth.default_c /. Bwc_metric.Dmatrix.get dm i j)
  in
  Dataset.make ~name bwm
