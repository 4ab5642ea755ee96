module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset
module Ensemble = Bwc_predtree.Ensemble
module Framework = Bwc_predtree.Framework
module Anchor = Bwc_predtree.Anchor
module Fault = Bwc_sim.Fault
module Protocol = Bwc_core.Protocol
module Detector = Bwc_core.Detector
module Registry = Bwc_obs.Registry

type row = {
  drop : float;
  crash_rate : float;
  crashes : int;
  converged : bool;
  fixpoint_match : bool;
  rounds : int;
  round_overhead : float;
  messages : int;
  message_overhead : float;
  retries : int;
  dup_suppressed : int;
  lost : int;
  duplicated : int;
  delayed : int;
  rr : float;
  rr_delta : float;
  query_retries : int;
}

type output = {
  dataset : string;
  n : int;
  duplicate : float;
  jitter : int;
  queries : int;
  clean_rounds : int;
  rr_clean : float;
  rows : row list;
}

(* identical CRT tables: own rows and every neighbor column *)
let fixpoint_matches ~n ens a b =
  let same x v = Protocol.crt_row a x v = Protocol.crt_row b x v in
  let ok = ref true in
  for x = 0 to n - 1 do
    if not (same x x) then ok := false;
    List.iter
      (fun m -> if not (same x m) then ok := false)
      (Ensemble.anchor_neighbors ens x)
  done;
  !ok

(* The system E12, E13 and E16 rebuild for every configuration: the
   ensemble from [seed + 1], less the [evict] hosts, and the protocol
   from [seed + 2], with n_cut 4 over five percentile classes,
   aggregated to quiescence or [max_rounds].  Only the fault plan, the
   failure detector, the trace sink and E13's oracle evictions vary, so
   any difference in outcome is attributable to them. *)
let build_system ~seed ~metrics ~faults ~detector ~trace ~max_rounds ~evict dataset =
  let classes = Bwc_core.Classes.of_percentiles ~count:5 dataset in
  let ens = Ensemble.build ~rng:(Rng.create (seed + 1)) ~metrics (Dataset.metric dataset) in
  List.iter (fun h -> ignore (Ensemble.evict_host ens h : (int * int) list)) evict;
  let p =
    Protocol.create ~rng:(Rng.create (seed + 2)) ~n_cut:4 ~faults ?detector ~metrics ?trace
      ~classes ens
  in
  let rounds = Protocol.run_aggregation ~max_rounds p in
  (ens, p, rounds)

(* every host except the root gets at most one crash window *)
let random_crashes ~rng ~n ~crash_rate =
  let crashes = ref [] in
  for host = 1 to n - 1 do
    if crash_rate > 0.0 && Rng.float rng 1.0 < crash_rate then begin
      let down_from = 2 + Rng.int rng 8 in
      let duration = 2 + Rng.int rng 6 in
      crashes :=
        { Fault.node = host; down_from; up_at = down_from + duration } :: !crashes
    end
  done;
  !crashes

(* the same seeded query stream is replayed against every configuration,
   submitted at [hosts] (after a crash, only at the survivors) *)
let measure_rr ~seed ~queries ~hosts ~lo ~hi protocol =
  let rng = Rng.create seed in
  let found = ref 0 in
  let retries = ref 0 in
  for _ = 1 to queries do
    let at = hosts.(Rng.int rng (Array.length hosts)) in
    let k = 2 + Rng.int rng 6 in
    let b = Rng.uniform rng lo hi in
    let r = Protocol.query_bandwidth protocol ~at ~k ~b in
    if Bwc_core.Query.found r then incr found;
    retries := !retries + r.Bwc_core.Query.retries
  done;
  (float_of_int !found /. float_of_int queries, !retries)

let run ?(drops = [ 0.0; 0.1; 0.2; 0.3 ]) ?(crash_rates = [ 0.0; 0.15 ]) ?(queries = 60)
    ~seed dataset =
  let duplicate = 0.1 and jitter = 2 and max_rounds = 600 in
  let n = Dataset.size dataset in
  let hosts = Array.init n Fun.id in
  let lo, hi = Workload.bandwidth_range dataset in
  (* each configuration gets its own registry so its snapshot is a
     self-contained record of what the whole stack did *)
  let build ~faults ~metrics =
    build_system ~seed ~metrics ~faults ~detector:None ~trace:None ~max_rounds ~evict:[]
      dataset
  in
  let ens, clean, clean_rounds = build ~faults:Fault.none ~metrics:(Registry.create ()) in
  let clean_messages = Protocol.messages_sent clean in
  let rr_clean, _ = measure_rr ~seed:(seed + 3) ~queries ~hosts ~lo ~hi clean in
  let rows =
    List.concat_map
      (fun drop ->
        List.map
          (fun crash_rate ->
            let crash_rng =
              Rng.create
                (seed + 7
                + int_of_float (drop *. 1000.0)
                + int_of_float (crash_rate *. 100_000.0))
            in
            let crashes = random_crashes ~rng:crash_rng ~n ~crash_rate in
            let metrics = Registry.create () in
            let faults =
              Fault.create ~drop ~duplicate ~jitter ~crashes ~metrics
                ~rng:(Rng.split crash_rng) ()
            in
            let _, p, rounds = build ~faults ~metrics in
            let rr, query_retries =
              measure_rr ~seed:(seed + 3) ~queries ~hosts ~lo ~hi p
            in
            (* the row is read off the configuration's registry snapshot:
               the same numbers `bwcluster metrics` would report *)
            let snap = Registry.snapshot metrics in
            let messages = Registry.get snap "engine.msgs_sent" in
            {
              drop;
              crash_rate;
              crashes = List.length crashes;
              converged = rounds < max_rounds;
              fixpoint_match = fixpoint_matches ~n ens clean p;
              rounds;
              round_overhead = float_of_int rounds /. float_of_int clean_rounds;
              messages;
              message_overhead =
                float_of_int messages /. float_of_int clean_messages;
              retries = Registry.get snap "protocol.retransmissions";
              dup_suppressed = Registry.get snap "protocol.dup_suppressed";
              lost = Registry.get snap "fault.lost";
              duplicated = Registry.get snap "fault.duplicated";
              delayed = Registry.get snap "fault.delayed";
              rr;
              rr_delta = rr_clean -. rr;
              query_retries;
            })
          crash_rates)
      drops
  in
  {
    dataset = dataset.Dataset.name;
    n;
    duplicate;
    jitter;
    queries;
    clean_rounds;
    rr_clean;
    rows;
  }

(* ----- E13: crash recovery through failure detection + self-healing ----- *)

type recovery_row = {
  victims : int;
  healed : bool;
  detect_rounds : int;
  reconverge_rounds : int;
  full_rounds : int;
  repair_msgs : int;
  heartbeats : int;
  full_msgs : int;
  msgs_saved : float;
  fixpoint_match : bool;
  overlay_match : bool;
  rr_during : float;
  rr_after : float;
  suspects : int;
  give_ups : int;
  regrafts : int;
}

type recovery_output = {
  dataset : string;
  n : int;
  queries : int;
  base_rounds : int;
  rr_clean : float;
  rows : recovery_row list;
}

(* [v] pairwise non-adjacent, non-root members of the primary anchor
   overlay: independent failures, so each repair is a local event *)
let pick_victims ~rng ens v =
  let anchor = Framework.anchor (Ensemble.primary ens) in
  let root = Anchor.root anchor in
  let rec pick chosen remaining k =
    if k = 0 || remaining = [] then List.rev chosen
    else begin
      let arr = Array.of_list remaining in
      let h = arr.(Rng.int rng (Array.length arr)) in
      let nbrs = Anchor.neighbors anchor h in
      let remaining =
        List.filter (fun x -> x <> h && not (List.mem x nbrs)) remaining
      in
      pick (h :: chosen) remaining (k - 1)
    end
  in
  pick [] (List.filter (fun h -> h <> root) (Ensemble.members ens)) v

let overlay_edges ens =
  let anchor = Framework.anchor (Ensemble.primary ens) in
  List.sort compare
    (List.concat_map
       (fun h -> List.map (fun c -> (h, c)) (Anchor.children anchor h))
       (Ensemble.members ens))

let recovery ?(victim_counts = [ 1; 2; 3 ]) ?(queries = 60) ~seed dataset =
  let max_rounds = 400 in
  let n = Dataset.size dataset in
  let hosts = Array.init n Fun.id in
  let lo, hi = Workload.bandwidth_range dataset in
  (* both arms of every row build the same system; the only difference
     is how the crash is handled: detector-driven incremental repair of
     the converged system vs an oracle that evicts the victims before a
     fresh protocol propagates everything *)
  let build ~evict detector =
    build_system ~seed ~metrics:(Registry.create ()) ~faults:Fault.none ~detector
      ~trace:None ~max_rounds ~evict dataset
  in
  let watched = Some Detector.default_config in
  let _, clean, base_rounds = build ~evict:[] watched in
  let rr_clean, _ = measure_rr ~seed:(seed + 3) ~queries ~hosts ~lo ~hi clean in
  let rows =
    List.map
      (fun v ->
        let ens_inc, p_inc, _ = build ~evict:[] watched in
        let victims = pick_victims ~rng:(Rng.create (seed + 11 + v)) ens_inc v in
        let vcount = List.length victims in
        List.iter (Protocol.crash_host p_inc) victims;
        let crash_round = Protocol.rounds_run p_inc in
        let msgs0_inc = Protocol.messages_sent p_inc in
        let hb0 = Protocol.heartbeats_sent p_inc in
        (* drive the incremental arm to quiescence, sampling one query per
           round (at live hosts) to watch availability during repair *)
        let qrng = Rng.create (seed + 5 + v) in
        let live =
          Array.of_list
            (List.filter
               (fun h -> not (List.mem h victims))
               (Ensemble.members ens_inc))
        in
        let hits = ref 0 in
        let asked = ref 0 in
        let detect = ref 0 in
        let rec go i =
          if i >= max_rounds then false
          else begin
            let active = Protocol.run_round p_inc in
            if !detect = 0 && Protocol.repairs_run p_inc >= vcount then
              detect := i + 1;
            let at = live.(Rng.int qrng (Array.length live)) in
            let k = 2 + Rng.int qrng 6 in
            let b = Rng.uniform qrng lo hi in
            incr asked;
            if Bwc_core.Query.found (Protocol.query_bandwidth p_inc ~at ~k ~b)
            then incr hits;
            if active || Protocol.repairs_run p_inc < vcount then go (i + 1)
            else true
          end
        in
        let healed = go 0 in
        let reconverge_rounds = Protocol.rounds_run p_inc - crash_round in
        let heartbeats = Protocol.heartbeats_sent p_inc - hb0 in
        (* repair traffic proper: what healing re-propagated, net of the
           steady heartbeat cost (reported separately) — the number the
           full-stabilization arm, whose oracle pays no detection either,
           is comparable against *)
        let repair_msgs =
          Protocol.messages_sent p_inc - msgs0_inc - heartbeats
        in
        let rr_during = float_of_int !hits /. float_of_int (max 1 !asked) in
        (* oracle arm: told the victims immediately, evicts them before
           its protocol starts, which then propagates from scratch *)
        let ens_full, p_full, full_rounds = build ~evict:victims None in
        let full_msgs = Protocol.messages_sent p_full in
        let overlay_match = overlay_edges ens_inc = overlay_edges ens_full in
        let fixpoint_match =
          overlay_match
          && List.for_all
               (fun x ->
                 Protocol.crt_row p_inc x x = Protocol.crt_row p_full x x
                 && List.for_all
                      (fun m ->
                        Protocol.crt_row p_inc x m = Protocol.crt_row p_full x m)
                      (Ensemble.anchor_neighbors ens_inc x))
               (Ensemble.members ens_inc)
        in
        let rr_after, _ =
          measure_rr ~seed:(seed + 3) ~queries
            ~hosts:(Array.of_list (Ensemble.members ens_inc))
            ~lo ~hi p_inc
        in
        let snap = Registry.snapshot (Protocol.metrics p_inc) in
        {
          victims = vcount;
          healed;
          detect_rounds = !detect;
          reconverge_rounds;
          full_rounds;
          repair_msgs;
          heartbeats;
          full_msgs;
          msgs_saved =
            (if full_msgs = 0 then 0.0
             else 1.0 -. (float_of_int repair_msgs /. float_of_int full_msgs));
          fixpoint_match;
          overlay_match;
          rr_during;
          rr_after;
          suspects = Registry.get snap "detector.suspects";
          give_ups = Protocol.give_ups p_inc;
          regrafts = Protocol.regrafts_applied p_inc;
        })
      victim_counts
  in
  ({ dataset = dataset.Dataset.name; n; queries; base_rounds; rr_clean; rows }
    : recovery_output)

let recovery_columns =
  Report.
    [
      col "victims" "victims" (fun r -> i r.victims);
      col "healed" "healed" (fun r -> yes_no r.healed);
      col "detect" "detect_rounds" (fun r -> i r.detect_rounds);
      col "reconv" "reconverge_rounds" (fun r -> i r.reconverge_rounds);
      col "full rds" "full_rounds" (fun r -> i r.full_rounds);
      col "repair msgs" "repair_msgs" (fun r -> i r.repair_msgs);
      col "hb" "heartbeats" (fun r -> i r.heartbeats);
      col "full msgs" "full_msgs" (fun r -> i r.full_msgs);
      col "saved" "msgs_saved" (fun r -> f3 r.msgs_saved);
      col "fixpoint" "fixpoint_match" (fun r -> yes_no r.fixpoint_match);
      col "overlay" "overlay_match" (fun r -> yes_no r.overlay_match);
      col "RR during" "rr_during" (fun r -> f3 r.rr_during);
      col "RR after" "rr_after" (fun r -> f3 r.rr_after);
      csv_only "suspects" (fun r -> i r.suspects);
      csv_only "give_ups" (fun r -> i r.give_ups);
      csv_only "regrafts" (fun r -> i r.regrafts);
    ]

let print_recovery (output : recovery_output) =
  Report.print
    ~title:
      (Printf.sprintf
         "Crash recovery: incremental self-healing vs full stabilize (clean: %d \
          rounds, RR %.3f) -- %s n=%d"
         output.base_rounds output.rr_clean output.dataset output.n)
    recovery_columns output.rows

let save_recovery_csv (output : recovery_output) =
  Report.save_csv recovery_columns output.rows

let recovery_gate (output : recovery_output) =
  List.concat_map
    (fun r ->
      let fail ok what =
        if ok then [] else [ Printf.sprintf "victims %d: %s" r.victims what ]
      in
      fail r.healed "crashed hosts were not healed"
      @ fail r.fixpoint_match "repaired CRT tables differ from full stabilization"
      @ fail r.overlay_match "repaired anchor overlay differs from full stabilization")
    output.rows

let columns =
  Report.
    [
      col "drop" "drop" (fun r -> f3 r.drop);
      col "crash" "crash_rate" (fun r -> f3 r.crash_rate);
      col "windows" "crash_windows" (fun r -> i r.crashes);
      col "conv" "converged" (fun r -> yes_no r.converged);
      col "fixpoint" "fixpoint_match" (fun (r : row) -> yes_no r.fixpoint_match);
      col "rounds" "rounds" (fun r -> i r.rounds);
      col "x rounds" "round_overhead" (fun r -> f3 r.round_overhead);
      col "msgs" "messages" (fun r -> i r.messages);
      col "x msgs" "message_overhead" (fun r -> f3 r.message_overhead);
      col "retries" "retries" (fun r -> i r.retries);
      csv_only "dup_suppressed" (fun r -> i r.dup_suppressed);
      csv_only "lost" (fun r -> i r.lost);
      csv_only "duplicated" (fun r -> i r.duplicated);
      csv_only "delayed" (fun r -> i r.delayed);
      col "RR" "rr" (fun r -> f3 r.rr);
      col "dRR" "rr_delta" (fun r -> f3 r.rr_delta);
      csv_only "query_retries" (fun r -> i r.query_retries);
    ]

let print (output : output) =
  Report.print
    ~title:
      (Printf.sprintf
         "Robustness under faults (dup=%.2f jitter=%d, clean: %d rounds, RR %.3f) -- %s \
          n=%d"
         output.duplicate output.jitter output.clean_rounds output.rr_clean
         output.dataset output.n)
    columns output.rows

let save_csv (output : output) = Report.save_csv columns output.rows

let gate (output : output) =
  List.concat_map
    (fun r ->
      let fail ok what =
        if ok then []
        else [ Printf.sprintf "drop %.3f crash %.3f: %s" r.drop r.crash_rate what ]
      in
      fail r.converged "aggregation did not converge"
      @ fail r.fixpoint_match "CRT tables differ from the fault-free fixed point")
    output.rows

(* ----- E15: crash-consistent restart, warm restore vs cold reconvergence ----- *)

module Dynamic = Bwc_core.Dynamic
module Snapshot = Bwc_persist.Snapshot
module Codec = Bwc_persist.Codec

type restart_row = {
  mode : string;
  restore_ok : bool;
  rejected_as : string;
  rr_at_restart : float;
  post_rounds : int;
  post_msgs : int;
  round_speedup : float;
  msg_speedup : float;
  fixpoint_match : bool;
}

type restart_output = {
  dataset : string;
  n : int;
  queries : int;
  snapshot_bytes : int;
  base_rounds : int;
  rr_clean : float;
  rows : restart_row list;
}

let err_class = function
  | Codec.Bad_magic -> "bad-magic"
  | Codec.Bad_version _ -> "bad-version"
  | Codec.Truncated -> "truncated"
  | Codec.Bad_checksum -> "bad-checksum"
  | Codec.Corrupt _ -> "corrupt"

let restart ?(queries = 60) ~seed dataset =
  let max_rounds = 600 and n_cut = 4 and class_count = 5 in
  let n = Dataset.size dataset in
  let hosts = Array.init n Fun.id in
  let lo, hi = Workload.bandwidth_range dataset in
  (* the reference system converges once; its image, taken at quiescence
     before any query runs, is what every restart arm starts from *)
  let reference = Dynamic.create ~seed ~n_cut ~class_count dataset in
  let ens = Dynamic.ensemble reference in
  let ref_p = Dynamic.protocol reference in
  let base_rounds = Protocol.rounds_run ref_p in
  let image = Snapshot.encode (`Dynamic reference) in
  let rr_clean, _ = measure_rr ~seed:(seed + 3) ~queries ~hosts ~lo ~hi ref_p in
  (* a cold start is the same build with aggregation suppressed: the state
     a node has after a restart with no (or no usable) snapshot *)
  let cold_build () =
    Dynamic.create ~seed ~n_cut ~class_count ~aggregation_rounds:0 dataset
  in
  (* one arm: replay the query workload immediately at restart (query
     availability while reconvergence is still pending), then run the
     aggregation to a fixed point and count what it cost *)
  let arm ~mode ~restore_ok ~rejected_as sys =
    let p = Dynamic.protocol sys in
    let rr_at_restart, _ = measure_rr ~seed:(seed + 3) ~queries ~hosts ~lo ~hi p in
    let msgs0 = Protocol.messages_sent p in
    let post_rounds = Protocol.run_aggregation ~max_rounds p in
    let post_msgs = Protocol.messages_sent p - msgs0 in
    let fixpoint_match = fixpoint_matches ~n ens ref_p p in
    (mode, restore_ok, rejected_as, rr_at_restart, post_rounds, post_msgs,
     fixpoint_match)
  in
  let from_bytes ~mode bytes =
    let restored, status = Snapshot.restore_or_cold ~cold:cold_build bytes in
    let restore_ok, rejected_as =
      match status with `Warm -> (true, "-") | `Cold e -> (false, err_class e)
    in
    arm ~mode ~restore_ok ~rejected_as restored
  in
  let corrupted ~mode ~salt corruption =
    from_bytes ~mode
      (Fault.corrupt_snapshot ~rng:(Rng.create (seed + salt)) corruption image)
  in
  let raw =
    [
      from_bytes ~mode:"warm" image;
      arm ~mode:"cold" ~restore_ok:false ~rejected_as:"-" (cold_build ());
      corrupted ~mode:"truncated" ~salt:13 (Fault.Truncate (String.length image / 3));
      corrupted ~mode:"bit-flip" ~salt:17 (Fault.Flip_bits 16);
      corrupted ~mode:"stale-version" ~salt:19 Fault.Stale_version;
    ]
  in
  (* the cold arm is the denominator: how much reconvergence a restart
     costs when the snapshot is absent or rejected *)
  let cold_rounds, cold_msgs =
    match List.nth raw 1 with _, _, _, _, r, m, _ -> (r, m)
  in
  let rows =
    List.map
      (fun (mode, restore_ok, rejected_as, rr_at_restart, post_rounds,
            post_msgs, fixpoint_match) ->
        {
          mode;
          restore_ok;
          rejected_as;
          rr_at_restart;
          post_rounds;
          post_msgs;
          round_speedup =
            float_of_int cold_rounds /. float_of_int (max 1 post_rounds);
          msg_speedup = float_of_int cold_msgs /. float_of_int (max 1 post_msgs);
          fixpoint_match;
        })
      raw
  in
  ({
     dataset = dataset.Dataset.name;
     n;
     queries;
     snapshot_bytes = String.length image;
     base_rounds;
     rr_clean;
     rows;
   }
    : restart_output)

let restart_columns =
  Report.
    [
      col "mode" "mode" (fun r -> r.mode);
      col "restored" "restore_ok" (fun r -> yes_no r.restore_ok);
      col "rejected as" "rejected_as" (fun r -> r.rejected_as);
      col "RR at restart" "rr_at_restart" (fun r -> f3 r.rr_at_restart);
      col "post rounds" "post_rounds" (fun r -> i r.post_rounds);
      col "post msgs" "post_msgs" (fun r -> i r.post_msgs);
      col "x rounds" "round_speedup" (fun r -> f r.round_speedup);
      col "x msgs" "msg_speedup" (fun r -> f r.msg_speedup);
      col "fixpoint" "fixpoint_match" (fun r -> yes_no r.fixpoint_match);
    ]

let print_restart (output : restart_output) =
  Report.print
    ~title:
      (Printf.sprintf
         "Restart: warm restore vs cold reconvergence (snapshot %d bytes, \
          converged in %d rounds, RR %.3f) -- %s n=%d"
         output.snapshot_bytes output.base_rounds output.rr_clean output.dataset
         output.n)
    restart_columns output.rows

let save_restart_csv (output : restart_output) =
  Report.save_csv restart_columns output.rows

(* the warm restore must verify and land on the reference fixed point,
   every corrupted image must be rejected, and at experiment scale
   (n >= 64) the restart must actually be cheap *)
let restart_gate ({ n; rows; _ } : restart_output) =
  List.concat_map
    (fun r ->
      match r.mode with
      | "warm" ->
          (if r.restore_ok then [] else [ "warm restore was rejected" ])
          @ (if r.fixpoint_match then []
             else [ "warm restore missed the reference fixed point" ])
          @
          if n < 64 then []
          else if r.round_speedup < 5.0 then
            [ Printf.sprintf "warm round speedup %.2f < 5 at n=%d" r.round_speedup n ]
          else if r.msg_speedup < 5.0 then
            [ Printf.sprintf "warm message speedup %.2f < 5 at n=%d" r.msg_speedup n ]
          else []
      | "cold" -> []
      | mode -> if r.restore_ok then [ mode ^ " snapshot was not rejected" ] else [])
    rows

let restart_to_json (output : restart_output) ~seed =
  let open Bwc_json in
  let row r =
    Obj
      [ ("mode", Str r.mode); ("restore_ok", Bool r.restore_ok);
        ("rejected_as", Str r.rejected_as); ("rr_at_restart", Num (r.rr_at_restart, 3));
        ("post_rounds", Int r.post_rounds); ("post_msgs", Int r.post_msgs);
        ("round_speedup", Num (r.round_speedup, 2));
        ("msg_speedup", Num (r.msg_speedup, 2)); ("fixpoint_match", Bool r.fixpoint_match) ]
  in
  to_rows
    (Obj
       [ ("experiment", Str "restart"); ("seed", Int seed);
         ("dataset", Str output.dataset); ("n", Int output.n);
         ("queries", Int output.queries); ("snapshot_bytes", Int output.snapshot_bytes);
         ("base_rounds", Int output.base_rounds); ("rr_clean", Num (output.rr_clean, 3));
         ("rows", Arr (List.map row output.rows)) ])
