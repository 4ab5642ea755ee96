(* Latency-constrained clustering -- the paper's future-work direction
   (Sec. VI): latency also embeds well into tree metrics, so the same
   machinery answers "find k hosts within d ms of each other".

   The trick is a change of units: feed the system a "bandwidth" matrix
   whose value for a pair is [C / latency_ms], so that the rational
   transform recovers distances proportional to latency, and a latency
   bound of [d] ms becomes a bandwidth constraint of [C / d].

     dune exec examples/latency_cluster.exe *)

module Rng = Bwc_stats.Rng

let () =
  let rng = Rng.create 23 in
  (* A hierarchical ISP topology measured in milliseconds: metro links of
     a few ms, long-haul up to ~60 ms, with measurement jitter. *)
  let dataset = Bwc_dataset.Latency.generate ~rng ~n:140 ~name:"latency-140" () in
  let sys = Bwc_core.Dynamic.create ~seed:5 dataset in

  let find_within_ms ~k ~ms =
    Bwc_core.Dynamic.query sys ~k ~b:(Bwc_dataset.Latency.bandwidth_constraint_for ms)
  in

  List.iter
    (fun (k, ms) ->
      match find_within_ms ~k ~ms with
      | { Bwc_core.Query.cluster = Some hosts; hops; _ } ->
          let worst =
            List.fold_left
              (fun acc x ->
                List.fold_left
                  (fun acc y ->
                    if x = y then acc
                    else Float.max acc (Bwc_dataset.Latency.latency_ms dataset x y))
                  acc hosts)
              0.0 hosts
          in
          Format.printf
            "k=%2d within %5.1f ms: found after %d hops, real worst pair = %5.1f ms@." k ms
            hops worst
      | _ -> Format.printf "k=%2d within %5.1f ms: no cluster@." k ms)
    [ (5, 15.0); (10, 30.0); (15, 60.0); (25, 60.0); (25, 120.0) ]
