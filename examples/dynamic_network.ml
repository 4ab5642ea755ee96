(* Dynamic clustering (requirement 5 of Sec. I): cluster membership must
   adapt as network conditions change.

   The example lets the pairwise bandwidths drift over several epochs.  A
   system that refreshes its prediction framework keeps answering with
   valid clusters, while a stale system that keeps using epoch-0
   predictions accumulates constraint violations.

     dune exec examples/dynamic_network.exe *)

module Rng = Bwc_stats.Rng

let epochs = 4
let queries_per_epoch = 60
let drift = 1.5 (* access-link load drift per epoch *)

let measure_wpr ~label sys current_truth =
  let rng = Rng.create 77 in
  let lo, hi =
    Bwc_dataset.Dataset.percentile_range current_truth ~lo:20.0 ~hi:80.0
  in
  let wrong = ref 0 and pairs = ref 0 and found = ref 0 in
  for _ = 1 to queries_per_epoch do
    let b = Rng.uniform rng lo hi in
    match (Bwc_core.Dynamic.query sys ~k:8 ~b).Bwc_core.Query.cluster with
    | None -> ()
    | Some cluster ->
        incr found;
        List.iteri
          (fun i x ->
            List.iteri
              (fun j y ->
                if j > i then begin
                  incr pairs;
                  if Bwc_dataset.Dataset.bw current_truth x y < b then incr wrong
                end)
              cluster)
          cluster
  done;
  Format.printf "  %-9s RR=%.2f  WPR(vs current network)=%.3f@." label
    (float_of_int !found /. float_of_int queries_per_epoch)
    (if !pairs = 0 then 0.0 else float_of_int !wrong /. float_of_int !pairs)

let () =
  let initial =
    Bwc_dataset.Planetlab.generate ~rng:(Rng.create 31) ~name:"dynamic-net"
      { Bwc_dataset.Planetlab.hp_target with n = 100 }
  in
  let stale_sys = Bwc_core.Dynamic.create ~seed:2 initial in
  let truth = ref initial in
  let fresh_sys = ref stale_sys in
  for epoch = 0 to epochs - 1 do
    Format.printf "@.epoch %d:@." epoch;
    measure_wpr ~label:"refreshed" !fresh_sys !truth;
    measure_wpr ~label:"stale" stale_sys !truth;
    if epoch < epochs - 1 then begin
      (* The network drifts... *)
      truth :=
        Bwc_dataset.Noise.host_drift
          ~rng:(Rng.create (500 + epoch))
          ~amplitude:drift !truth;
      (* ...and the refreshed system rebuilds its prediction framework
         and re-runs aggregation on the new measurements. *)
      fresh_sys := Bwc_core.Dynamic.create ~seed:2 !truth
    end
  done;
  Format.printf
    "@.the refreshed system tracks the drifting network; the stale one degrades.@."
