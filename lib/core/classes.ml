type t = {
  c : float;
  bws : float array; (* ascending *)
  ls : float array;  (* index-aligned: ls.(i) = c / bws.(i), descending *)
}

let make ?(c = Bwc_metric.Bandwidth.default_c) bws =
  if bws = [] then invalid_arg "Classes.make: empty class list";
  List.iter
    (fun b ->
      if b <= 0.0 || not (Float.is_finite b) then
        invalid_arg "Classes.make: bandwidths must be positive and finite")
    bws;
  let arr = Array.of_list (List.sort_uniq compare bws) in
  { c; bws = arr; ls = Array.map (fun b -> c /. b) arr }

let of_percentiles ?c ?(count = 8) ds =
  if count < 1 then invalid_arg "Classes.of_percentiles: count < 1";
  let ps =
    Array.init count (fun i ->
        if count = 1 then 50.0
        else 20.0 +. (60.0 *. float_of_int i /. float_of_int (count - 1)))
  in
  make ?c
    (Array.to_list
       (Bwc_stats.Summary.percentiles (Bwc_dataset.Dataset.bandwidth_values ds) ps))

let count t = Array.length t.bws
let c t = t.c
let bandwidths t = Array.copy t.bws
let distances t = Array.copy t.ls
let distance t i = t.ls.(i)

let class_for t ~b =
  (* smallest class bandwidth >= b *)
  let n = Array.length t.bws in
  let rec search lo hi =
    if lo >= hi then if lo < n then Some lo else None
    else begin
      let mid = (lo + hi) / 2 in
      if t.bws.(mid) >= b then search lo mid else search (mid + 1) hi
    end
  in
  search 0 n
