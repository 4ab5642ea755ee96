module Rng = Bwc_stats.Rng
module Framework = Bwc_predtree.Framework
module Ensemble = Bwc_predtree.Ensemble

type row = {
  label : string;
  ensemble : int;
  p50 : float;
  p90 : float;
  over2x : float;
  measurements : int;
  full_mesh : int;
}

let over2x_rate ens space =
  let n = space.Bwc_metric.Space.n in
  let overs = ref 0 and total = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      incr total;
      (* distance under-prediction by 2x = bandwidth over-prediction by 2x *)
      if Ensemble.predicted ens i j *. 2.0 <= Bwc_metric.Space.dist space i j then incr overs
    done
  done;
  float_of_int !overs /. float_of_int (Stdlib.max 1 !total)

let evaluate ~rounds ~seed ~label ~mode ~size space =
  let n = space.Bwc_metric.Space.n in
  let errs = ref [] and over = ref 0.0 and meas = ref 0 in
  for round = 0 to rounds - 1 do
    let ens = Ensemble.build ~rng:(Rng.create (seed + round)) ~mode ~size space in
    errs := Ensemble.relative_errors ens :: !errs;
    over := !over +. over2x_rate ens space;
    meas := !meas + Ensemble.measurements_total ens
  done;
  let cdf = Bwc_stats.Cdf.make (Array.concat !errs) in
  {
    label;
    ensemble = size;
    p50 = Bwc_stats.Cdf.quantile cdf 0.5;
    p90 = Bwc_stats.Cdf.quantile cdf 0.9;
    over2x = !over /. float_of_int rounds;
    measurements = !meas / rounds;
    full_mesh = n * (n - 1) / 2;
  }

let run ?(rounds = 2) ?(sizes = [ 1; 3; 5 ]) ~seed dataset =
  let space = Bwc_dataset.Dataset.metric dataset in
  let modes =
    [
      ("root+exact", Framework.centralized_mode);
      ("random+exact", { Framework.base = `Random; end_search = `Exact });
      ("root+anchor", { Framework.base = `Root; end_search = `Anchor_guided 16 });
      ("random+anchor", Framework.default_mode);
    ]
  in
  let mode_rows =
    List.map
      (fun (label, mode) -> evaluate ~rounds ~seed ~label ~mode ~size:1 space)
      modes
  in
  let size_rows =
    List.filter_map
      (fun size ->
        if size = 1 then None (* already covered by random+anchor above *)
        else
          Some
            (evaluate ~rounds ~seed
               ~label:(Printf.sprintf "random+anchor x%d" size)
               ~mode:Framework.default_mode ~size space))
      sizes
  in
  mode_rows @ size_rows

let print ~dataset rows =
  Report.table
    ~title:(Printf.sprintf "Ablation: embedding accuracy vs construction mode -- %s" dataset)
    ~headers:[ "mode"; "trees"; "rel.err p50"; "rel.err p90"; "over-2x"; "measurements"; "full mesh" ]
    (List.map
       (fun r ->
         [
           r.label;
           Report.i r.ensemble;
           Report.f3 r.p50;
           Report.f3 r.p90;
           Report.f r.over2x;
           Report.i r.measurements;
           Report.i r.full_mesh;
         ])
       rows)
