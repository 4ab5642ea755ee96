module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset
module Ensemble = Bwc_predtree.Ensemble
module Registry = Bwc_obs.Registry

type row = {
  n : int;
  measurements : int;
  full_mesh : int;
  rounds_to_quiescence : int;
  messages_total : int;
  messages_per_host : float;
  anchor_depth : int;
}

type output = {
  base_dataset : string;
  n_cut : int;
  rows : row list;
}

let run ?(sizes = [ 40; 80; 120 ]) ?(repeats = 2) ?(n_cut = 10) ~seed base =
  let rows =
    List.map
      (fun n ->
        if n > Dataset.size base then
          invalid_arg "Overhead.run: subset size exceeds base dataset";
        let meas = ref 0 and rounds = ref 0 and msgs = ref 0 and depth = ref 0 in
        for rep = 0 to repeats - 1 do
          let rng = Rng.create (seed + (100 * n) + rep) in
          let ds = Dataset.random_subset base ~rng n in
          let space = Dataset.metric ds in
          (* one registry per repetition captures the whole stack: tree
             construction cost and protocol traffic land in the same
             snapshot *)
          let metrics = Registry.create () in
          let ens = Ensemble.build ~rng:(Rng.split rng) ~metrics space in
          let classes = Bwc_core.Classes.of_percentiles ~count:8 ds in
          let protocol =
            Bwc_core.Protocol.create ~rng:(Rng.split rng) ~n_cut ~metrics ~classes ens
          in
          let r = Bwc_core.Protocol.run_aggregation protocol in
          let snap = Registry.snapshot metrics in
          meas := !meas + Registry.sum_by_name snap "predtree.measurements";
          rounds := !rounds + r;
          msgs := !msgs + Registry.get snap "engine.msgs_sent";
          depth :=
            !depth
            + Bwc_predtree.Anchor.max_depth
                (Bwc_predtree.Framework.anchor (Ensemble.primary ens))
        done;
        {
          n;
          measurements = !meas / repeats;
          full_mesh = n * (n - 1) / 2;
          rounds_to_quiescence = !rounds / repeats;
          messages_total = !msgs / repeats;
          messages_per_host = float_of_int !msgs /. float_of_int (repeats * n);
          anchor_depth = !depth / repeats;
        })
      (List.sort compare sizes)
  in
  { base_dataset = base.Dataset.name; n_cut; rows }

let columns =
  Report.
    [
      col "n" "n" (fun r -> i r.n);
      col "predtree.measurements" "predtree_measurements" (fun r -> i r.measurements);
      col "full mesh" "full_mesh" (fun r -> i r.full_mesh);
      col "rounds" "rounds" (fun r -> i r.rounds_to_quiescence);
      col "engine.msgs_sent" "engine_msgs_sent" (fun r -> i r.messages_total);
      col "msgs/host" "msgs_per_host" (fun r -> f r.messages_per_host);
      col "anchor depth" "anchor_depth" (fun r -> i r.anchor_depth);
    ]

let print output =
  Report.print
    ~title:
      (Printf.sprintf "Background overhead vs system size (n_cut=%d) -- %s" output.n_cut
         output.base_dataset)
    columns output.rows

let save_csv output = Report.save_csv columns output.rows
