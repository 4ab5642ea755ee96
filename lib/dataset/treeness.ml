module Rng = Bwc_stats.Rng

type entry = {
  dataset : Dataset.t;
  sigma : float;
  epsilon_avg : float;
}

let default_sigmas = [ 0.0; 0.1; 0.2; 0.4; 0.8; 1.6 ]

let sweep ~rng ?(sigmas = default_sigmas) ~n () =
  let base =
    Hier_tree.generate ~rng ~n ~name:(Printf.sprintf "tree-base-%d" n) ()
  in
  List.map
    (fun sigma ->
      let dataset =
        if Float.equal sigma 0.0 then base
        else
          Noise.multiplicative ~rng:(Rng.split rng) ~sigma
            ~name:(Printf.sprintf "treeness-sigma%.2f" sigma)
            base
      in
      let epsilon_avg =
        Bwc_metric.Fourpoint.epsilon_avg ~samples:20_000 ~rng (Dataset.metric dataset)
      in
      { dataset; sigma; epsilon_avg })
    sigmas
