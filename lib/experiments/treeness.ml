module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset

type bin = {
  f_b : float;
  wpr : float;
  f_a_star : float;
  wpr_norm : float;
  queries : int;
}

type curve = {
  sigma : float;
  epsilon_avg : float;
  bins : bin list;
}

type output = { curves : curve list }

let alpha = 3.2

let f_a_star f_a = ((alpha -. (1.0 /. alpha)) *. f_a) +. (1.0 /. alpha)

(* Bandwidth classes spanning nearly the whole distribution so that the
   decentralized system can quantise any constraint in the wide band this
   experiment sweeps; the fixed 20-80 band of Classes.of_percentiles is
   too narrow here. *)
let wide_classes ~count ds =
  let values = Dataset.bandwidth_values ds in
  Bwc_core.Classes.make
    (List.init count (fun idx ->
         let p = 2.0 +. (96.0 *. float_of_int idx /. float_of_int (count - 1)) in
         Bwc_stats.Summary.percentile values p))

type acc = {
  mutable wrong : int;
  mutable pairs : int;
  mutable fb_sum : float;
  mutable fa_sum : float;
  mutable count : int;
}

let run ?(n = 100) ?(sigmas = [ 0.02; 0.05; 0.1; 0.2; 0.4; 0.8 ]) ?(rounds = 2)
    ?(queries_per_round = 300) ?(k = 5) ?(bins = 6) ?(window = 10.0) ~seed () =
  let entries =
    Bwc_dataset.Treeness.sweep ~rng:(Rng.create seed) ~sigmas ~n ()
  in
  let curves =
    List.map
      (fun (entry : Bwc_dataset.Treeness.entry) ->
        let ds = entry.Bwc_dataset.Treeness.dataset in
        let cdf = Dataset.bandwidth_cdf ds in
        let classes = wide_classes ~count:24 ds in
        let accs = Array.init bins (fun _ ->
            { wrong = 0; pairs = 0; fb_sum = 0.0; fa_sum = 0.0; count = 0 })
        in
        let range = Workload.bandwidth_range ~lo_pct:3.0 ~hi_pct:97.0 ds in
        for round = 0 to rounds - 1 do
          let sys = Bwc_core.Dynamic.create ~seed:(seed + round) ~classes ds in
          let rng = Rng.create (seed + (1000 * round) + 29) in
          let queries =
            Workload.fixed_k ~rng ~range ~n ~k ~count:queries_per_round
          in
          List.iter
            (fun (q : Workload.query) ->
              let b = q.Workload.b in
              let fb = Bwc_stats.Cdf.eval cdf b in
              let fa = Bwc_stats.Cdf.fraction_in cdf ~lo:(b -. window) ~hi:(b +. window) in
              let bin = Stdlib.min (bins - 1) (int_of_float (fb *. float_of_int bins)) in
              let acc = accs.(bin) in
              match
                (Bwc_core.Dynamic.query ~at:q.Workload.at sys ~k:q.Workload.k ~b)
                  .Bwc_core.Query.cluster
              with
              | None -> ()
              | Some cluster ->
                  acc.count <- acc.count + 1;
                  acc.fb_sum <- acc.fb_sum +. fb;
                  acc.fa_sum <- acc.fa_sum +. fa;
                  acc.wrong <-
                    acc.wrong
                    + List.length (Bwc_core.Dynamic.verify_cluster sys ~b cluster);
                  acc.pairs <- acc.pairs + (List.length cluster * (List.length cluster - 1) / 2))
            queries
        done;
        let bins_out =
          Array.to_list accs
          |> List.filter_map (fun acc ->
                 if acc.count = 0 then None
                 else begin
                   let wpr =
                     if acc.pairs = 0 then 0.0
                     else float_of_int acc.wrong /. float_of_int acc.pairs
                   in
                   let fas = f_a_star (acc.fa_sum /. float_of_int acc.count) in
                   Some
                     {
                       f_b = acc.fb_sum /. float_of_int acc.count;
                       wpr;
                       f_a_star = fas;
                       wpr_norm = Float.pow wpr fas;
                       queries = acc.count;
                     }
                 end)
        in
        {
          sigma = entry.Bwc_dataset.Treeness.sigma;
          epsilon_avg = entry.Bwc_dataset.Treeness.epsilon_avg;
          bins = bins_out;
        })
      entries
  in
  { curves }

(* one text table per curve; the CSV holds every curve's bins *)
let columns =
  Report.
    [
      csv_only "sigma" (fun (c, _) -> Printf.sprintf "%.2f" c.sigma);
      csv_only "epsilon_avg" (fun (c, _) -> Printf.sprintf "%.4f" c.epsilon_avg);
      col "f_b" "f_b" (fun (_, b) -> f3 b.f_b);
      col "WPR" "wpr" (fun (_, b) -> f3 b.wpr);
      col "f_a*" "f_a_star" (fun (_, b) -> f3 b.f_a_star);
      col "WPR^f_a*" "wpr_norm" (fun (_, b) -> f3 b.wpr_norm);
      col "queries" "queries" (fun (_, b) -> i b.queries);
    ]

let rows curve = List.map (fun b -> (curve, b)) curve.bins

let print output =
  List.iter
    (fun curve ->
      Report.print
        ~title:
          (Printf.sprintf "Fig.5 treeness: sigma=%.2f eps_avg=%.4f" curve.sigma
             curve.epsilon_avg)
        columns (rows curve))
    output.curves

let save_csv output = Report.save_csv columns (List.concat_map rows output.curves)
