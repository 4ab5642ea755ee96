module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset
module Ensemble = Bwc_predtree.Ensemble
module Fault = Bwc_sim.Fault
module Protocol = Bwc_core.Protocol
module Detector = Bwc_core.Detector
module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace
module Causal = Bwc_obs.Causal

type kind_row = {
  kind : string;
  sends : int;
  bytes : int;
  delivered : int;
  dropped : int;
}

type row = {
  scenario : string;
  rounds : int;
  messages : int;
  delivered : int;
  dropped : int;
  query_hops : int;
  total_bytes : int;
  cp_len : int;
  cp_rounds : int;
  frac_explained : float;
  cp_kinds : string;
  send_sum_matches : bool;
  kinds : kind_row list;
}

type output = { dataset : string; n : int; seed : int; rows : row list }

let row_of ~scenario ~engine_sends report =
  let kinds =
    List.map
      (fun (k, (s : Causal.kind_stat)) ->
        {
          kind = Trace.kind_to_string k;
          sends = s.k_sends;
          bytes = s.k_bytes;
          delivered = s.k_delivered;
          dropped = s.k_dropped;
        })
      report.Causal.by_kind
  in
  {
    scenario;
    rounds = report.Causal.rounds;
    messages = report.Causal.messages;
    delivered = report.Causal.delivered_events;
    dropped = report.Causal.dropped_events;
    query_hops = report.Causal.query_hops;
    total_bytes = report.Causal.total_bytes;
    cp_len = List.length report.Causal.critical_path;
    cp_rounds = report.Causal.cp_rounds;
    frac_explained = report.Causal.frac_explained;
    cp_kinds =
      String.concat "-"
        (List.map
           (fun (h : Causal.hop) -> Trace.kind_to_string h.h_kind)
           report.Causal.critical_path);
    send_sum_matches = Causal.engine_sends report = engine_sends;
    kinds;
  }

let max_rounds = 400

(* every scenario rebuilds the E12/E13 system with an unbounded trace
   sink; the only variation is the fault plan, so the per-scenario
   attribution tables are directly comparable *)
let traced_system ~faults ~detector ~seed dataset =
  let trace = Trace.create () in
  let ens, p, (_ : int) =
    Robustness.build_system ~seed ~metrics:(Registry.create ()) ~faults ~detector
      ~trace:(Some trace) ~max_rounds dataset
  in
  (ens, p, trace)

let recovery_events ?(victims = 2) ?(queries = 40) ~seed dataset =
  let lo, hi = Workload.bandwidth_range dataset in
  let ens, p, trace =
    traced_system ~faults:Fault.none ~detector:(Some Detector.default_config) ~seed dataset
  in
  let chosen = Robustness.pick_victims ~rng:(Rng.create (seed + 11)) ens victims in
  let vcount = List.length chosen in
  List.iter (Protocol.crash_host p) chosen;
  let rec heal i =
    if i < max_rounds then begin
      let active = Protocol.run_round p in
      if active || Protocol.repairs_run p < vcount then heal (i + 1)
    end
  in
  heal 0;
  (* queries land on live members only: crash recovery evicts victims *)
  let live = Array.of_list (Ensemble.members ens) in
  ignore
    (Robustness.measure_rr ~seed:(seed + 3) ~queries ~hosts:live ~lo ~hi p : float * int);
  (Trace.events trace, Protocol.messages_sent p)

let run ?(victims = 2) ?(queries = 40) ~seed dataset =
  let n = Dataset.size dataset in
  let lo, hi = Workload.bandwidth_range dataset in
  let all_hosts = Array.init n Fun.id in
  let finish ~scenario p trace =
    ignore
      (Robustness.measure_rr ~seed:(seed + 3) ~queries ~hosts:all_hosts ~lo ~hi p
        : float * int);
    let report = Causal.analyze (Trace.events trace) in
    row_of ~scenario ~engine_sends:(Protocol.messages_sent p) report
  in
  let clean =
    let _, p, trace = traced_system ~faults:Fault.none ~detector:None ~seed dataset in
    finish ~scenario:"clean" p trace
  in
  let faulty =
    let faults_metrics = Registry.create () in
    let faults =
      Fault.create ~drop:0.1 ~duplicate:0.05 ~jitter:1 ~metrics:faults_metrics
        ~rng:(Rng.create (seed + 7)) ()
    in
    let _, p, trace = traced_system ~faults ~detector:None ~seed dataset in
    finish ~scenario:"faulty" p trace
  in
  let recovery =
    let events, engine_sends = recovery_events ~victims ~queries ~seed dataset in
    row_of ~scenario:"recovery" ~engine_sends (Causal.analyze events)
  in
  ({ dataset = dataset.Dataset.name; n; seed; rows = [ clean; faulty; recovery ] }
    : output)

let columns =
  Report.
    [
      col "scenario" "scenario" (fun r -> r.scenario);
      col "rounds" "rounds" (fun r -> i r.rounds);
      col "msgs" "messages" (fun r -> i r.messages);
      col "delivered" "delivered" (fun (r : row) -> i r.delivered);
      col "dropped" "dropped" (fun (r : row) -> i r.dropped);
      col "qhops" "query_hops" (fun r -> i r.query_hops);
      col "bytes" "total_bytes" (fun r -> i r.total_bytes);
      col "cp len" "cp_len" (fun r -> i r.cp_len);
      col "cp rds" "cp_rounds" (fun r -> i r.cp_rounds);
      col "frac" "frac_explained" (fun r -> f3 r.frac_explained);
      csv_only "cp_kinds" (fun r -> r.cp_kinds);
      col "sum ok" "send_sum_matches" (fun r -> yes_no r.send_sum_matches);
    ]

(* rows are (scenario, kind); the text tables, one per scenario, skip
   kinds that were never sent nor dropped *)
let kind_columns =
  Report.
    [
      csv_only "scenario" (fun (r, _) -> r.scenario);
      col "kind" "kind" (fun (_, k) -> k.kind);
      col "sends" "sends" (fun (_, k) -> i k.sends);
      col "bytes" "bytes" (fun (_, k) -> i k.bytes);
      col "delivered" "delivered" (fun (_, (k : kind_row)) -> i k.delivered);
      col "dropped" "dropped" (fun (_, (k : kind_row)) -> i k.dropped);
    ]

let kind_rows r = List.map (fun k -> (r, k)) r.kinds

let print (output : output) =
  Report.print
    ~title:
      (Printf.sprintf
         "Trace analytics: critical path and attribution -- %s n=%d seed=%d"
         output.dataset output.n output.seed)
    columns output.rows;
  List.iter
    (fun r ->
      Report.print
        ~title:
          (Printf.sprintf "Byte budget by kind -- %s (critical path: %s)"
             r.scenario
             (if r.cp_kinds = "" then "<empty>" else r.cp_kinds))
        kind_columns
        (List.filter (fun (_, k) -> k.sends <> 0 || k.dropped <> 0) (kind_rows r)))
    output.rows

let save_csv (output : output) = Report.save_csv columns output.rows

let save_kinds_csv (output : output) =
  Report.save_csv kind_columns (List.concat_map kind_rows output.rows)

let gate (output : output) =
  if List.for_all (fun r -> r.send_sum_matches) output.rows then []
  else [ "per-kind send attribution does not sum to the engine counter" ]
