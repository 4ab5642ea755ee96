module Rng = Bwc_stats.Rng

type row = {
  k : int;
  rr_central : float;
  rr_decentral : float;
  queries : int;
}

type output = {
  dataset : string;
  n_cut : int;
  rows : row list;
}

let default_ks n =
  (* 2 up to ~47% of the system, matching the paper's ranges
     (k = 2..90 of 190, 2..150 of 317). *)
  Workload.k_fraction_range ~n ~lo:0.01 ~hi:0.47 ~steps:12

let sweep ~rounds ~per_k ~ks ~n_cut ~seed dataset =
  let n = Bwc_dataset.Dataset.size dataset in
  let found_c = Hashtbl.create 16 and found_d = Hashtbl.create 16 in
  let asked = Hashtbl.create 16 in
  let bump tbl k by =
    Hashtbl.replace tbl k (by + (Option.value ~default:0 (Hashtbl.find_opt tbl k)))
  in
  let range = Workload.bandwidth_range dataset in
  for round = 0 to rounds - 1 do
    let ctx = Context.create ~seed:(seed + round) ~n_cut dataset in
    let rng = Rng.create (seed + (1000 * round) + 13) in
    let queries = Workload.swept_k ~rng ~range ~n ~ks ~per_k in
    List.iter
      (fun (q : Workload.query) ->
        bump asked q.Workload.k 1;
        if Context.tree_central ctx q <> None then bump found_c q.Workload.k 1;
        if Bwc_core.Query.found (Context.tree_decentral ctx q) then
          bump found_d q.Workload.k 1)
      queries
  done;
  let rows =
    List.map
      (fun k ->
        let asked_k = Option.value ~default:0 (Hashtbl.find_opt asked k) in
        let rate tbl =
          if asked_k = 0 then 0.0
          else
            float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl k))
            /. float_of_int asked_k
        in
        { k; rr_central = rate found_c; rr_decentral = rate found_d; queries = asked_k })
      (List.sort compare ks)
  in
  { dataset = dataset.Bwc_dataset.Dataset.name; n_cut; rows }

let run ?(rounds = 5) ?(per_k = 4) ?ks ?(n_cut = 10) ~seed dataset =
  let ks =
    match ks with Some ks -> ks | None -> default_ks (Bwc_dataset.Dataset.size dataset)
  in
  sweep ~rounds ~per_k ~ks ~n_cut ~seed dataset

type ablation_row = {
  a_n_cut : int;
  a_rr : float;
}

let ncut_ablation ?(rounds = 3) ?(per_k = 3) ?ks ?(n_cuts = [ 2; 5; 10; 20 ]) ~seed dataset
    =
  let ks =
    match ks with Some ks -> ks | None -> default_ks (Bwc_dataset.Dataset.size dataset)
  in
  List.map
    (fun n_cut ->
      let out = sweep ~rounds ~per_k ~ks ~n_cut ~seed dataset in
      let found, asked =
        List.fold_left
          (fun (f, a) r ->
            (f +. (r.rr_decentral *. float_of_int r.queries), a + r.queries))
          (0.0, 0) out.rows
      in
      { a_n_cut = n_cut; a_rr = (if asked = 0 then 0.0 else found /. float_of_int asked) })
    n_cuts

let columns =
  Report.
    [
      col "k" "k" (fun r -> i r.k);
      col "RR central" "rr_central" (fun r -> f3 r.rr_central);
      col "RR decentral" "rr_decentral" (fun r -> f3 r.rr_decentral);
      col "queries" "queries" (fun r -> i r.queries);
    ]

let print output =
  Report.print
    ~title:
      (Printf.sprintf "Fig.4 tradeoff of decentralization (RR vs k, n_cut=%d) -- %s"
         output.n_cut output.dataset)
    columns output.rows

let print_ablation ~dataset rows =
  Report.table
    ~title:(Printf.sprintf "Ablation: decentralized RR vs n_cut -- %s" dataset)
    ~headers:[ "n_cut"; "RR decentral (pooled)" ]
    (List.map (fun r -> [ Report.i r.a_n_cut; Report.f3 r.a_rr ]) rows)

let save_csv output = Report.save_csv columns output.rows
