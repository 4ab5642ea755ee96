module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset

type row = {
  k : int;
  queries : int;
  rr_best : float;
  rr_first : float;
  hops_best : float;
  hops_first : float;
}

type output = {
  dataset : string;
  rows : row list;
}

type acc = {
  mutable found : int;
  mutable hops : int;
}

let run ?(queries_per_k = 60) ?(rounds = 2) ~seed dataset =
  let n = Dataset.size dataset in
  let ks = Workload.k_fraction_range ~n ~lo:0.08 ~hi:0.30 ~steps:4 in
  let lo, hi = Workload.bandwidth_range dataset in
  let table = Hashtbl.create 8 in
  let acc_for k =
    match Hashtbl.find_opt table k with
    | Some pair -> pair
    | None ->
        let pair = ({ found = 0; hops = 0 }, { found = 0; hops = 0 }) in
        Hashtbl.add table k pair;
        pair
  in
  for round = 0 to rounds - 1 do
    let protocol =
      Bwc_core.Dynamic.protocol (Bwc_core.Dynamic.create ~seed:(seed + round) dataset)
    in
    let rng = Rng.create (seed + (1000 * round) + 71) in
    List.iter
      (fun k ->
        let best, first = acc_for k in
        for _ = 1 to queries_per_k do
          let b = Rng.uniform rng lo hi in
          let at = Rng.int rng n in
          let record acc policy =
            let r = Bwc_core.Protocol.query_bandwidth ~policy protocol ~at ~k ~b in
            if Bwc_core.Query.found r then begin
              acc.found <- acc.found + 1;
              acc.hops <- acc.hops + r.Bwc_core.Query.hops
            end
          in
          record best `Best_crt;
          record first `First
        done)
      ks
  done;
  let total = rounds * queries_per_k in
  let rows =
    List.map
      (fun k ->
        let best, first = acc_for k in
        let rate acc = float_of_int acc.found /. float_of_int total in
        let mean acc =
          if acc.found = 0 then 0.0 else float_of_int acc.hops /. float_of_int acc.found
        in
        {
          k;
          queries = total;
          rr_best = rate best;
          rr_first = rate first;
          hops_best = mean best;
          hops_first = mean first;
        })
      (List.sort compare ks)
  in
  { dataset = dataset.Dataset.name; rows }

let columns =
  Report.
    [
      col "k" "k" (fun r -> i r.k);
      col "queries" "queries" (fun r -> i r.queries);
      col "RR best" "rr_best" (fun r -> f3 r.rr_best);
      col "RR first" "rr_first" (fun r -> f3 r.rr_first);
      col "hops best" "hops_best" (fun r -> f3 r.hops_best);
      col "hops first" "hops_first" (fun r -> f3 r.hops_first);
    ]

let print output =
  Report.print
    ~title:(Printf.sprintf "Ablation: forwarding policy -- %s" output.dataset)
    columns output.rows

let save_csv output = Report.save_csv columns output.rows
