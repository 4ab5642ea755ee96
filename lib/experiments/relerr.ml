type output = {
  dataset : string;
  tree : Bwc_stats.Cdf.t;
  eucl : Bwc_stats.Cdf.t;
}

let run ?(rounds = 3) ~seed dataset =
  let tree_errs = ref [] and eucl_errs = ref [] in
  for round = 0 to rounds - 1 do
    let ctx = Context.create ~seed:(seed + round) dataset in
    tree_errs :=
      Bwc_predtree.Ensemble.relative_errors ~c:(Context.c ctx)
        (Bwc_core.Dynamic.ensemble ctx.Context.sys)
      :: !tree_errs;
    eucl_errs :=
      Bwc_vivaldi.Vivaldi.relative_errors ~c:(Context.c ctx) ctx.Context.vivaldi
        (Bwc_dataset.Dataset.metric ~c:(Context.c ctx) dataset)
      :: !eucl_errs
  done;
  {
    dataset = dataset.Bwc_dataset.Dataset.name;
    tree = Bwc_stats.Cdf.make (Array.concat !tree_errs);
    eucl = Bwc_stats.Cdf.make (Array.concat !eucl_errs);
  }

let median_gap output =
  Bwc_stats.Cdf.quantile output.eucl 0.5 -. Bwc_stats.Cdf.quantile output.tree 0.5

(* rows are cumulative fractions; the CSV carries more digits *)
let columns output =
  let q cdf fmt p = Printf.sprintf fmt (Bwc_stats.Cdf.quantile cdf p) in
  Report.
    [
      col ~csv:(Printf.sprintf "%.4f") "cum.frac" "cum_frac" f3;
      col ~csv:(q output.tree "%.6f") "TREE" "tree_rel_err" (q output.tree "%.4g");
      col ~csv:(q output.eucl "%.6f") "EUCL" "eucl_rel_err" (q output.eucl "%.4g");
    ]

let fractions resolution =
  List.init resolution (fun idx -> float_of_int (idx + 1) /. float_of_int resolution)

let print output =
  Report.print
    ~title:
      (Printf.sprintf "Fig.3 relative bandwidth-prediction error CDF -- %s" output.dataset)
    (columns output) (fractions 10);
  Report.line (Printf.sprintf "median gap (eucl - tree): %.4f" (median_gap output))

let save_csv output = Report.save_csv (columns output) (fractions 100)
