(* P2P desktop grid job placement -- the paper's motivating scenario
   (Sec. I): a data-intensive scientific workflow (CyberShake-style) runs
   much faster on workers with high pairwise bandwidth, because stages
   exchange intermediate files all-to-all.

   This example schedules the same workflow three ways -- on a
   bandwidth-constrained cluster found by the decentralized system, on a
   random worker set, and on a latency-agnostic "first k idle" set -- and
   compares estimated data-exchange times computed from the ground-truth
   bandwidth matrix.

     dune exec examples/desktop_grid.exe *)

module Rng = Bwc_stats.Rng

type workflow = {
  workers_needed : int;
  stage_exchanges : float list; (** per-stage all-to-all payload, Mbit per pair *)
}

let cybershake_like =
  {
    workers_needed = 12;
    (* three exchange-heavy stages: mesh generation, strain Green tensor
       broadcast, seismogram reduction *)
    stage_exchanges = [ 400.0; 1200.0; 250.0 ];
  }

(* Time for one all-to-all stage: every pair moves [mbit]; the stage ends
   when the slowest pair finishes. *)
let stage_time ds mbit workers =
  let slowest = ref 0.0 in
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y ->
          if j > i then begin
            let bw = Bwc_dataset.Dataset.bw ds x y in
            slowest := Float.max !slowest (mbit /. bw)
          end)
        workers)
    workers;
  !slowest

let workflow_time ds wf workers =
  List.fold_left (fun acc mbit -> acc +. stage_time ds mbit workers) 0.0 wf.stage_exchanges

let () =
  let dataset =
    Bwc_dataset.Planetlab.generate ~rng:(Rng.create 3) ~name:"desktop-grid"
      { Bwc_dataset.Planetlab.hp_target with n = 150 }
  in
  let n = Bwc_dataset.Dataset.size dataset in
  let wf = cybershake_like in
  Format.printf "desktop grid of %d hosts; workflow needs %d workers@." n wf.workers_needed;

  let sys = Bwc_core.Dynamic.create ~seed:11 dataset in

  (* 1. Bandwidth-constrained placement: ask for pairwise >= 40 Mbps. *)
  let smart =
    match Bwc_core.Dynamic.query sys ~k:wf.workers_needed ~b:40.0 with
    | { Bwc_core.Query.cluster = Some hosts; hops; _ } ->
        Format.printf "cluster placement found after %d hops@." hops;
        hosts
    | _ -> failwith "Desktop_grid.smart: no cluster found; try a smaller b"
  in

  (* 2. Random placement (what a naive scheduler does). *)
  let rng = Rng.create 99 in
  let random_set =
    Array.to_list (Rng.sample_without_replacement rng wf.workers_needed n)
  in

  (* 3. "First idle" placement: the k lowest host ids. *)
  let first_idle = List.init wf.workers_needed (fun i -> i) in

  let t_smart = workflow_time dataset wf smart in
  let t_random = workflow_time dataset wf random_set in
  let t_first = workflow_time dataset wf first_idle in
  Format.printf "@.estimated data-exchange time per run:@.";
  Format.printf "  bandwidth-constrained cluster : %8.1f s@." t_smart;
  Format.printf "  random workers                : %8.1f s  (%.1fx slower)@." t_random
    (t_random /. t_smart);
  Format.printf "  first-k-idle workers          : %8.1f s  (%.1fx slower)@." t_first
    (t_first /. t_smart);

  (* Bonus: pick a data-staging node with high bandwidth to the whole
     cluster (the node-search extension of Sec. VI). *)
  match Bwc_core.Dynamic.find_feeder sys ~targets:smart with
  | Some (feeder, bw) ->
      Format.printf "@.data-staging node: host %d (predicted >= %.1f Mbps to every worker)@."
        feeder bw
  | None -> ()
