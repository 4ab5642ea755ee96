let c = Bwc_metric.Bandwidth.default_c

(* 20 routers with router-router delays log-uniform in [2, 60] ms and
   log-normal host access delays (log-ms) *)
let topology =
  {
    Hier_tree.routers = 20;
    core_weight_lo = 2.0;
    core_weight_hi = 60.0;
    access_mu = 1.2;
    access_sigma = 0.5;
  }

(* multiplicative log-normal measurement jitter *)
let jitter_sigma = 0.04

let generate ~rng ~n ~name () =
  let ms = Hier_tree.distance_matrix ~rng ~params:topology ~n () in
  let bwm =
    Bwc_metric.Dmatrix.of_fun n ~diag:Float.infinity (fun i j ->
        let jitter = exp (jitter_sigma *. Bwc_stats.Rng.gaussian rng) in
        c /. (Bwc_metric.Dmatrix.get ms i j *. jitter))
  in
  Dataset.make ~name bwm

let latency_ms ds i j = if i = j then 0.0 else c /. Dataset.bw ds i j

let bandwidth_constraint_for ms =
  if ms <= 0.0 then invalid_arg "Latency.bandwidth_constraint_for: ms <= 0";
  c /. ms
