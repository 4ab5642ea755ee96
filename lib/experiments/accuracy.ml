module Rng = Bwc_stats.Rng

type row = {
  b : float;
  wpr_tree_decentral : float;
  wpr_tree_central : float;
  wpr_eucl_central : float;
  queries : int;
}

type output = {
  dataset : string;
  rows : row list;
  rr_tree_decentral : float;
  rr_tree_central : float;
  rr_eucl_central : float;
}

type acc = {
  mutable wrong : int;
  mutable pairs : int;
  mutable found : int;
  mutable asked : int;
}

let fresh () = { wrong = 0; pairs = 0; found = 0; asked = 0 }

let record ctx acc ~b = function
  | None -> acc.asked <- acc.asked + 1
  | Some cluster ->
      acc.asked <- acc.asked + 1;
      acc.found <- acc.found + 1;
      acc.wrong <- acc.wrong + Context.wrong_pairs ctx ~b cluster;
      acc.pairs <- acc.pairs + Context.pair_count cluster

let wpr acc = if acc.pairs = 0 then 0.0 else float_of_int acc.wrong /. float_of_int acc.pairs
let rr acc = if acc.asked = 0 then 0.0 else float_of_int acc.found /. float_of_int acc.asked

let run ?(rounds = 3) ?(queries_per_round = 200) ?k ?(bins = 6) ~seed dataset =
  let n = Bwc_dataset.Dataset.size dataset in
  let k = match k with Some k -> k | None -> Stdlib.max 2 (n / 20) in
  let ((lo, hi) as range) = Workload.bandwidth_range dataset in
  (* One accumulator triple per constraint bin, plus totals. *)
  let per_bin = Array.init bins (fun _ -> (fresh (), fresh (), fresh ())) in
  let bin_b_sum = Array.make bins 0.0 and bin_count = Array.make bins 0 in
  let totals = (fresh (), fresh (), fresh ()) in
  let bin_of b =
    let idx = int_of_float ((b -. lo) /. (hi -. lo) *. float_of_int bins) in
    Stdlib.max 0 (Stdlib.min (bins - 1) idx)
  in
  for round = 0 to rounds - 1 do
    let ctx = Context.create ~seed:(seed + round) dataset in
    let rng = Rng.create (seed + (1000 * round) + 7) in
    let queries = Workload.fixed_k ~rng ~range ~n ~k ~count:queries_per_round in
    List.iter
      (fun (q : Workload.query) ->
        let b = q.Workload.b in
        let idx = bin_of b in
        bin_b_sum.(idx) <- bin_b_sum.(idx) +. b;
        bin_count.(idx) <- bin_count.(idx) + 1;
        let dec, cen, euc = per_bin.(idx) in
        let tdec, tcen, teuc = totals in
        let dec_answer = (Context.tree_decentral ctx q).Bwc_core.Query.cluster in
        record ctx dec ~b dec_answer;
        record ctx tdec ~b dec_answer;
        let cen_answer = Context.tree_central ctx q in
        record ctx cen ~b cen_answer;
        record ctx tcen ~b cen_answer;
        let euc_answer = Context.eucl_central ctx q in
        record ctx euc ~b euc_answer;
        record ctx teuc ~b euc_answer)
      queries
  done;
  let rows =
    List.filter_map
      (fun idx ->
        if bin_count.(idx) = 0 then None
        else begin
          let dec, cen, euc = per_bin.(idx) in
          Some
            {
              b = bin_b_sum.(idx) /. float_of_int bin_count.(idx);
              wpr_tree_decentral = wpr dec;
              wpr_tree_central = wpr cen;
              wpr_eucl_central = wpr euc;
              queries = dec.asked;
            }
        end)
      (List.init bins (fun i -> i))
  in
  let tdec, tcen, teuc = totals in
  {
    dataset = dataset.Bwc_dataset.Dataset.name;
    rows;
    rr_tree_decentral = rr tdec;
    rr_tree_central = rr tcen;
    rr_eucl_central = rr teuc;
  }

let columns =
  Report.
    [
      col "b (Mbps)" "b_mbps" (fun r -> f r.b);
      col "TREE-DECENTRAL" "wpr_tree_decentral" (fun r -> f3 r.wpr_tree_decentral);
      col "TREE-CENTRAL" "wpr_tree_central" (fun r -> f3 r.wpr_tree_central);
      col "EUCL-CENTRAL" "wpr_eucl_central" (fun r -> f3 r.wpr_eucl_central);
      col "queries" "queries" (fun r -> i r.queries);
    ]

let print output =
  Report.print
    ~title:(Printf.sprintf "Fig.3 accuracy (WPR vs b) -- %s" output.dataset)
    columns output.rows;
  Report.table ~title:"  overall return rates"
    ~headers:[ "TREE-DECENTRAL"; "TREE-CENTRAL"; "EUCL-CENTRAL" ]
    [
      [
        Report.f3 output.rr_tree_decentral;
        Report.f3 output.rr_tree_central;
        Report.f3 output.rr_eucl_central;
      ];
    ]

let save_csv output = Report.save_csv columns output.rows
