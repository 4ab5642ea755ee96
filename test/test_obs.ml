(* Tests for bwc_obs: registry semantics (handles, snapshots, diff,
   exact JSON rendering), trace sinks (ordering, ring capacity, JSONL), span
   timers, and the end-to-end determinism contract — the same seed and
   fault plan must produce a byte-identical JSONL trace. *)

module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace
module Span = Bwc_obs.Span
module Rng = Bwc_stats.Rng
module Engine = Bwc_sim.Engine
module Fault = Bwc_sim.Fault

(* ----- registry: handles ----- *)

let test_counter_basics () =
  let r = Registry.create () in
  let c = Registry.counter r "a.count" in
  Registry.Counter.incr c;
  Registry.Counter.incr ~by:4 c;
  Alcotest.(check int) "value" 5 (Registry.Counter.value c);
  (* get-or-create: the same (name, labels) returns the same cell *)
  let c' = Registry.counter r "a.count" in
  Registry.Counter.incr c';
  Alcotest.(check int) "shared cell" 6 (Registry.Counter.value c);
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Registry.Counter.incr: negative increment") (fun () ->
      Registry.Counter.incr ~by:(-1) c)

let test_labels_normalized () =
  let r = Registry.create () in
  let a = Registry.counter r ~labels:[ ("x", "1"); ("y", "2") ] "m" in
  let b = Registry.counter r ~labels:[ ("y", "2"); ("x", "1") ] "m" in
  Registry.Counter.incr a;
  Alcotest.(check int) "label order irrelevant" 1 (Registry.Counter.value b);
  let c = Registry.counter r ~labels:[ ("x", "2") ] "m" in
  Registry.Counter.incr ~by:7 c;
  Alcotest.(check int) "distinct labels distinct cells" 1 (Registry.Counter.value a)

let test_type_mismatch () =
  let r = Registry.create () in
  let (_ : Registry.Counter.t) = Registry.counter r "m" in
  Alcotest.check_raises "counter reopened as gauge"
    (Invalid_argument "Registry.gauge: m already registered with a different type")
    (fun () -> ignore (Registry.gauge r "m"))

let test_gauge () =
  let r = Registry.create () in
  let g = Registry.gauge r "g" in
  Registry.Gauge.set g 10;
  Registry.Gauge.add g (-3);
  Alcotest.(check int) "set/add" 7 (Registry.get (Registry.snapshot r) "g")

let test_histogram_buckets () =
  let r = Registry.create () in
  let h = Registry.histogram r "h" in
  List.iter (Registry.Histogram.observe h) [ 0; 1; 2; 3; 4; 1000 ];
  (match Registry.find (Registry.snapshot r) "h" with
  | Some (Registry.Histogram { count; sum; max_value; _ }) ->
      Alcotest.(check int) "count" 6 count;
      Alcotest.(check int) "sum" 1010 sum;
      Alcotest.(check int) "max" 1000 max_value
  | _ -> Alcotest.fail "histogram sample expected");
  (* bucket 0 = {0}, bucket i >= 1 = [2^(i-1), 2^i) *)
  Alcotest.(check (pair int int)) "bucket 0" (0, 0) (Registry.Histogram.bucket_bounds 0);
  Alcotest.(check (pair int int)) "bucket 1" (1, 1) (Registry.Histogram.bucket_bounds 1);
  Alcotest.(check (pair int int)) "bucket 3" (4, 7) (Registry.Histogram.bucket_bounds 3);
  (match Registry.find (Registry.snapshot r) "h" with
  | Some (Registry.Histogram { buckets; _ }) ->
      Alcotest.(check (list (pair int int)))
        "buckets" [ (0, 1); (1, 1); (2, 2); (3, 1); (10, 1) ] buckets
  | _ -> Alcotest.fail "histogram sample expected");
  Alcotest.check_raises "negative sample"
    (Invalid_argument "Registry.Histogram.observe: negative sample") (fun () ->
      Registry.Histogram.observe h (-1))

(* ----- registry: snapshots ----- *)

let sample_registry () =
  let r = Registry.create () in
  Registry.Counter.incr ~by:3 (Registry.counter r "z.count");
  Registry.Counter.incr
    (Registry.counter r ~labels:[ ("cause", "loss") ] "a.drops");
  Registry.Counter.incr ~by:2
    (Registry.counter r ~labels:[ ("cause", "purge") ] "a.drops");
  Registry.Gauge.set (Registry.gauge r "g.depth") 4;
  let h = Registry.histogram r "q.hops" in
  List.iter (Registry.Histogram.observe h) [ 0; 2; 5 ];
  r

let test_snapshot_sorted () =
  let snap = Registry.snapshot (sample_registry ()) in
  let names = List.map (fun (n, _, _) -> n) snap in
  Alcotest.(check (list string))
    "sorted by (name, labels)"
    [ "a.drops"; "a.drops"; "g.depth"; "q.hops"; "z.count" ]
    names;
  Alcotest.(check int) "labelled get" 2
    (Registry.get snap ~labels:[ ("cause", "purge") ] "a.drops");
  Alcotest.(check int) "sum over labels" 3 (Registry.sum_by_name snap "a.drops");
  Alcotest.(check int) "absent metric reads 0" 0 (Registry.get snap "nope")

let test_diff_and_reset () =
  let r = Registry.create () in
  let c = Registry.counter r "c" in
  let g = Registry.gauge r "g" in
  let h = Registry.histogram r "h" in
  Registry.Counter.incr ~by:5 c;
  Registry.Gauge.set g 10;
  Registry.Histogram.observe h 3;
  let before = Registry.snapshot r in
  Registry.Counter.incr ~by:2 c;
  Registry.Gauge.set g 4;
  Registry.Histogram.observe h 64;
  let after = Registry.snapshot r in
  let d = Registry.diff ~before ~after in
  Alcotest.(check int) "counter delta" 2 (Registry.get d "c");
  Alcotest.(check int) "gauge keeps after" 4 (Registry.get d "g");
  (match Registry.find d "h" with
  | Some (Registry.Histogram { count; sum; max_value; buckets }) ->
      Alcotest.(check int) "hist count delta" 1 count;
      Alcotest.(check int) "hist sum delta" 64 sum;
      Alcotest.(check int) "hist max keeps after" 64 max_value;
      Alcotest.(check (list (pair int int))) "hist bucket delta" [ (7, 1) ] buckets
  | _ -> Alcotest.fail "histogram sample expected");
  Registry.reset r;
  Alcotest.(check int) "reset zeroes counters" 0 (Registry.Counter.value c);
  Alcotest.(check int) "handles stay valid" 0 (Registry.get (Registry.snapshot r) "h");
  Registry.Counter.incr c;
  Alcotest.(check int) "and keep working" 1 (Registry.Counter.value c)

let test_json_rendering () =
  (* the emitter's exact bytes: labels inline, histograms with derived
     quantiles and their non-empty (bucket, count) pairs *)
  Alcotest.(check string) "canonical json"
    ("{\"metrics\":["
    ^ "{\"name\":\"a.drops\",\"labels\":{\"cause\":\"loss\"},\"type\":\"counter\",\"value\":1},"
    ^ "{\"name\":\"a.drops\",\"labels\":{\"cause\":\"purge\"},\"type\":\"counter\",\"value\":2},"
    ^ "{\"name\":\"g.depth\",\"labels\":{},\"type\":\"gauge\",\"value\":4},"
    ^ "{\"name\":\"q.hops\",\"labels\":{},\"type\":\"histogram\",\"count\":3,\"sum\":7,"
    ^ "\"max\":5,\"p50\":3,\"p90\":5,\"p99\":5,\"buckets\":[[0,1],[2,1],[3,1]]},"
    ^ "{\"name\":\"z.count\",\"labels\":{},\"type\":\"counter\",\"value\":3}"
    ^ "]}")
    (Registry.to_json (Registry.snapshot (sample_registry ())))

let test_text_rendering () =
  let text = Registry.to_text (Registry.snapshot (sample_registry ())) in
  let has sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "labelled counter line" true (has "a.drops{cause=purge} 2");
  Alcotest.(check bool) "gauge line" true (has "g.depth 4 gauge");
  Alcotest.(check bool) "histogram line" true (has "q.hops histogram count=3")

(* ----- the JSON codec (Bwc_json) ----- *)

let test_json_escaping () =
  Alcotest.(check string)
    "quotes and newlines escaped" "\"a\\\"b\\nc\\\\d\""
    (Bwc_json.to_string (Bwc_json.Str "a\"b\nc\\d"));
  Alcotest.(check string)
    "tab, CR and other control bytes" {|"\t\r\u0001\u001f"|}
    (Bwc_json.to_string (Bwc_json.Str "\t\r\001\031"))

let test_json_rows_layout () =
  let v =
    Bwc_json.(
      Obj
        [ ("bench", Str "x"); ("pct", Num (1.5, 2)); ("empty", Arr []);
          ("rows", Arr [ Obj [ ("n", Int 1); ("ok", Bool true) ]; Arr [ Null; Int (-2) ] ]) ])
  in
  Alcotest.(check string) "rows"
    "{\n\
    \  \"bench\": \"x\",\n\
    \  \"pct\": 1.50,\n\
    \  \"empty\": [],\n\
    \  \"rows\": [\n\
    \    {\"n\": 1, \"ok\": true},\n\
    \    [null, -2]\n\
    \  ]\n\
     }\n"
    (Bwc_json.to_rows v);
  Alcotest.(check string) "compact"
    {|{"bench":"x","pct":1.50,"empty":[],"rows":[{"n":1,"ok":true},[null,-2]]}|}
    (Bwc_json.to_string v);
  Alcotest.(check bool) "parses back" true (Bwc_json.of_string (Bwc_json.to_rows v) = Ok v)

let test_json_parse () =
  (* compared through the compact printer, which tells -0 from 0 *)
  let reads s v =
    Alcotest.(check (result string string))
      s
      (Ok (Bwc_json.to_string v))
      (Result.map Bwc_json.to_string (Bwc_json.of_string s))
  in
  reads {| "\u00e9\/\u0041" |} (Bwc_json.Str "\u{e9}/A");
  reads "-0" (Bwc_json.Num (-0.0, 0));
  reads "-0.50" (Bwc_json.Num (-0.5, 2));
  reads "[ 1 , {\"a\" : null} ]" Bwc_json.(Arr [ Int 1; Obj [ ("a", Null) ] ]);
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true (Result.is_error (Bwc_json.of_string s)))
    [ ""; "{"; "[1,]"; "tru"; {|"\x"|}; {|"\ud83d"|}; "1e3"; "1 2"; "{\"a\" 1}"; "-" ]

(* ----- trace sink ----- *)

let test_trace_order_and_jsonl () =
  let tr = Trace.create () in
  Trace.emit tr (Trace.Round_start { round = 1 });
  Trace.emit tr
    (Trace.Send
       { round = 1; msg = 0; kind = Trace.Aggregate; bytes = 96; lc = 1; src = 0; dst = 2 });
  Trace.emit tr
    (Trace.Drop
       { round = 1; msg = 0; kind = Trace.Aggregate; bytes = 96; src = 0; dst = 2;
         cause = Trace.Fault_loss });
  Trace.emit tr (Trace.Quiesce { round = 2 });
  Alcotest.(check int) "emitted" 4 (Trace.emitted tr);
  Alcotest.(check int) "kept" 4 (List.length (Trace.events tr));
  Alcotest.(check string) "jsonl"
    "{\"ev\":\"round_start\",\"round\":1}\n\
     {\"ev\":\"send\",\"round\":1,\"msg\":0,\"kind\":\"aggregate\",\"bytes\":96,\"lc\":1,\"src\":0,\"dst\":2}\n\
     {\"ev\":\"drop\",\"round\":1,\"msg\":0,\"kind\":\"aggregate\",\"bytes\":96,\"src\":0,\"dst\":2,\"cause\":\"fault_loss\"}\n\
     {\"ev\":\"quiesce\",\"round\":2}\n"
    (Trace.to_jsonl tr)

(* every byte class the string escaper distinguishes: quote, backslash,
   newline, tab, CR and a bare control character *)
let nasty = "a\"b\\c\nd\te\rf\001g"

let test_trace_jsonl_round_trip () =
  (* every event constructor renders and parses back exactly *)
  let evs =
    [
      Trace.Round_start { round = 1 };
      Trace.Send
        { round = 1; msg = 3; kind = Trace.Heartbeat; bytes = 8; lc = 4; src = 1; dst = 0 };
      Trace.Deliver
        { round = 2; msg = 3; kind = Trace.Heartbeat; bytes = 8; lc = 5; src = 1; dst = 0 };
      Trace.Drop
        { round = 2; msg = 4; kind = Trace.Ack; bytes = 24; src = 0; dst = 1;
          cause = Trace.Dead_dst };
      Trace.Retransmit { round = 3; src = 0; dst = 1 };
      Trace.Crash { round = 3; node = 2 };
      Trace.Restart { round = 4; node = 2 };
      Trace.Query_hop { round = 5; msg = 9; bytes = 16; src = 2; dst = 3 };
      Trace.Suspect { round = 5; by = 1; node = 2 };
      Trace.Confirm_dead { round = 6; by = 1; node = 2 };
      Trace.Regraft { round = 6; node = 3; new_parent = 1 };
      Trace.Quiesce { round = 7 };
      Trace.Snapshot_write { round = 7; bytes = 1024 };
      Trace.Restore { round = 8; warm = true };
      Trace.Restore_rejected { round = 9; reason = "bad \"magic\"\nline" };
      Trace.Daemon_admit { round = 11; cls = nasty; conn = 3 };
      Trace.Daemon_shed { round = 12; cls = nasty; reason = nasty };
      Trace.Daemon_timeout { round = 13; waited = 9; deadline = 8 };
      Trace.Daemon_degrade { round = 14; entered = true; staleness = 5 };
      Trace.Daemon_retry { round = 15; cls = nasty; attempt = 2; due = 19 };
      Trace.Daemon_watchdog { round = 16; pending = false; stalled = 4 };
    ]
  in
  let tr = Trace.create () in
  List.iter (Trace.emit tr) evs;
  (match Trace.of_jsonl (Trace.to_jsonl tr) with
  | Ok parsed -> Alcotest.(check bool) "round-trips exactly" true (parsed = evs)
  | Error e -> Alcotest.failf "of_jsonl failed: %s" e);
  (match Trace.of_jsonl "{\"ev\":\"send\",\"round\":1}\n" with
  | Ok _ -> Alcotest.fail "field-poor send must not parse"
  | Error _ -> ());
  Alcotest.(check bool)
    "unknown event rejected" true
    (match Trace.of_jsonl "{\"ev\":\"warp\",\"round\":1}" with
    | Error _ -> true
    | Ok _ -> false)

let test_trace_daemon_events_jsonl () =
  (* no golden trace carries daemon events, so their bytes are pinned here *)
  List.iter
    (fun (ev, line) -> Alcotest.(check string) line line (Trace.event_to_json ev))
    [
      ( Trace.Daemon_admit { round = 11; cls = nasty; conn = 3 },
        {|{"ev":"daemon_admit","round":11,"cls":"a\"b\\c\nd\te\rf\u0001g","conn":3}|} );
      ( Trace.Daemon_shed { round = 12; cls = nasty; reason = nasty },
        {|{"ev":"daemon_shed","round":12,"cls":"a\"b\\c\nd\te\rf\u0001g","reason":"a\"b\\c\nd\te\rf\u0001g"}|}
      );
      ( Trace.Daemon_timeout { round = 13; waited = 9; deadline = 8 },
        {|{"ev":"daemon_timeout","round":13,"waited":9,"deadline":8}|} );
      ( Trace.Daemon_degrade { round = 14; entered = true; staleness = 5 },
        {|{"ev":"daemon_degrade","round":14,"entered":true,"staleness":5}|} );
      ( Trace.Daemon_retry { round = 15; cls = nasty; attempt = 2; due = 19 },
        {|{"ev":"daemon_retry","round":15,"cls":"a\"b\\c\nd\te\rf\u0001g","attempt":2,"due":19}|}
      );
      ( Trace.Daemon_watchdog { round = 16; pending = false; stalled = 4 },
        {|{"ev":"daemon_watchdog","round":16,"pending":false,"stalled":4}|} );
    ]

let test_trace_failure_events_jsonl () =
  (* the failure-detection lifecycle: crash, suspicion, confirmation,
     repair — rendered in emission order *)
  let tr = Trace.create () in
  Trace.emit tr (Trace.Crash { round = 7; node = 4 });
  Trace.emit tr (Trace.Suspect { round = 13; by = 1; node = 4 });
  Trace.emit tr (Trace.Confirm_dead { round = 17; by = 1; node = 4 });
  Trace.emit tr (Trace.Regraft { round = 17; node = 9; new_parent = 1 });
  Alcotest.(check string) "jsonl"
    "{\"ev\":\"crash\",\"round\":7,\"node\":4}\n\
     {\"ev\":\"suspect\",\"round\":13,\"by\":1,\"node\":4}\n\
     {\"ev\":\"confirm_dead\",\"round\":17,\"by\":1,\"node\":4}\n\
     {\"ev\":\"regraft\",\"round\":17,\"node\":9,\"new_parent\":1}\n"
    (Trace.to_jsonl tr)

let test_trace_ring_capacity () =
  let tr = Trace.create ~capacity:3 () in
  for round = 1 to 5 do
    Trace.emit tr (Trace.Round_start { round })
  done;
  Alcotest.(check int) "emitted counts everything" 5 (Trace.emitted tr);
  let rounds =
    List.map
      (function Trace.Round_start { round } -> round | _ -> -1)
      (Trace.events tr)
  in
  Alcotest.(check (list int)) "ring keeps the newest" [ 3; 4; 5 ] rounds;
  Alcotest.check_raises "capacity < 1 rejected"
    (Invalid_argument "Trace.create: capacity < 1") (fun () ->
      ignore (Trace.create ~capacity:0 ()))

(* ----- determinism: same seed + fault plan => byte-identical trace ----- *)

let engine_scenario () =
  let trace = Trace.create () in
  let metrics = Registry.create () in
  let faults =
    Fault.create ~drop:0.2 ~duplicate:0.1 ~jitter:2
      ~crashes:[ { Fault.node = 3; down_from = 2; up_at = 4 } ]
      ~metrics ~rng:(Rng.create 42) ()
  in
  let e = Engine.create ~faults ~metrics ~trace ~rng:(Rng.create 43) 8 in
  let source = Rng.create 44 in
  let budget = ref 40 in
  let step id _ =
    if !budget > 0 && id = 0 then begin
      decr budget;
      Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:(1 + Rng.int source 7) ();
      true
    end
    else false
  in
  let rounds = ref 0 in
  while !rounds < 100 && Engine.run_round e ~step do
    incr rounds
  done;
  (Trace.to_jsonl trace, Registry.to_json (Registry.snapshot metrics))

let test_same_seed_identical_trace () =
  let trace1, metrics1 = engine_scenario () in
  let trace2, metrics2 = engine_scenario () in
  Alcotest.(check string) "byte-identical JSONL trace" trace1 trace2;
  Alcotest.(check string) "byte-identical metrics JSON" metrics1 metrics2;
  Alcotest.(check bool) "trace is non-trivial" true (String.length trace1 > 500)

let protocol_scenario () =
  let space =
    Bwc_metric.Space.of_dmatrix
      (Bwc_dataset.Hier_tree.distance_matrix ~rng:(Rng.create 50) ~n:24 ())
  in
  let metrics = Registry.create () in
  let trace = Trace.create () in
  let faults = Fault.create ~drop:0.15 ~jitter:1 ~metrics ~rng:(Rng.create 51) () in
  let ens = Bwc_predtree.Ensemble.build ~rng:(Rng.create 52) ~metrics space in
  let classes = Bwc_core.Classes.make ~c:1000.0 [ 10.0; 20.0; 40.0 ] in
  let p =
    Bwc_core.Protocol.create ~rng:(Rng.create 53) ~n_cut:4 ~faults ~metrics ~trace
      ~classes ens
  in
  let (_ : int) = Bwc_core.Protocol.run_aggregation p in
  for at = 0 to 11 do
    ignore (Bwc_core.Protocol.query p ~at ~k:3 ~cls:1)
  done;
  (Trace.to_jsonl trace, Registry.to_json (Registry.snapshot metrics))

let test_protocol_trace_deterministic () =
  let trace1, metrics1 = protocol_scenario () in
  let trace2, metrics2 = protocol_scenario () in
  Alcotest.(check string) "protocol trace byte-identical" trace1 trace2;
  Alcotest.(check string) "protocol metrics byte-identical" metrics1 metrics2;
  (* the scenario exercised the full event vocabulary worth checking *)
  let has sub =
    let n = String.length trace1 and m = String.length sub in
    let rec go i = i + m <= n && (String.sub trace1 i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has sends" true (has "\"ev\":\"send\"");
  Alcotest.(check bool) "has deliveries" true (has "\"ev\":\"deliver\"");
  Alcotest.(check bool) "has fault drops" true (has "\"cause\":\"fault_loss\"");
  Alcotest.(check bool) "has retransmits" true (has "\"ev\":\"retransmit\"");
  Alcotest.(check bool) "has quiesce" true (has "\"ev\":\"quiesce\"")

let test_instrumentation_is_transparent () =
  (* the same protocol seeds with and without a trace sink / shared
     registry must produce the same message totals: observability cannot
     perturb the run *)
  let build observed =
    let space =
      Bwc_metric.Space.of_dmatrix
        (Bwc_dataset.Hier_tree.distance_matrix ~rng:(Rng.create 60) ~n:20 ())
    in
    let metrics = if observed then Some (Registry.create ()) else None in
    let trace = if observed then Some (Trace.create ()) else None in
    let ens = Bwc_predtree.Ensemble.build ~rng:(Rng.create 61) ?metrics space in
    let classes = Bwc_core.Classes.make ~c:1000.0 [ 10.0; 20.0; 40.0 ] in
    let p =
      Bwc_core.Protocol.create ~rng:(Rng.create 62) ~n_cut:4 ?metrics ?trace
        ~classes ens
    in
    let rounds = Bwc_core.Protocol.run_aggregation p in
    (rounds, Bwc_core.Protocol.messages_sent p)
  in
  Alcotest.(check (pair int int))
    "identical rounds and messages" (build false) (build true)

(* ----- span timers ----- *)

(* ----- causal analytics ----- *)

module Causal = Bwc_obs.Causal
module Trace_diff = Bwc_obs.Trace_diff

(* two nodes, three messages: an aggregate answered by an ack (the
   critical path), a dropped heartbeat, and a query hop *)
let causal_fixture =
  [
    Trace.Round_start { round = 1 };
    Trace.Send
      { round = 1; msg = 0; kind = Trace.Aggregate; bytes = 100; lc = 1; src = 0; dst = 1 };
    Trace.Round_start { round = 2 };
    Trace.Deliver
      { round = 2; msg = 0; kind = Trace.Aggregate; bytes = 100; lc = 2; src = 0; dst = 1 };
    Trace.Send
      { round = 2; msg = 1; kind = Trace.Ack; bytes = 24; lc = 3; src = 1; dst = 0 };
    Trace.Send
      { round = 2; msg = 2; kind = Trace.Heartbeat; bytes = 8; lc = 4; src = 1; dst = 0 };
    Trace.Round_start { round = 3 };
    Trace.Deliver
      { round = 3; msg = 1; kind = Trace.Ack; bytes = 24; lc = 4; src = 1; dst = 0 };
    Trace.Drop
      {
        round = 3;
        msg = 2;
        kind = Trace.Heartbeat;
        bytes = 8;
        src = 1;
        dst = 0;
        cause = Trace.Fault_loss;
      };
    Trace.Query_hop { round = 3; msg = 3; bytes = 16; src = 0; dst = 1 };
    Trace.Quiesce { round = 3 };
  ]

let test_causal_report_golden () =
  let r = Causal.analyze causal_fixture in
  Alcotest.(check int) "messages" 3 r.Causal.messages;
  Alcotest.(check int) "engine sends exclude query hops" 3
    (Causal.engine_sends r);
  let expected_text =
    "trace analytics\n\
    \  rounds      : 3 (quiesce at 3)\n\
    \  messages    : 3 sends, 2 delivered, 1 dropped, 1 query hops\n\
    \  bytes       : 148\n\
     \n\
     critical path (2 hops, rounds 1..3, 66.7% of 3 rounds explained)\n\
    \   hop     msg  kind               link   sent  delivered  bytes\n\
    \     1       0  aggregate      0 ->    1      1         2    100\n\
    \     2       1  ack            1 ->    0      2         3     24\n\
     \n\
     byte budget by kind\n\
    \  kind          sends      bytes  delivered  dropped\n\
    \  heartbeat         1          8          0        1\n\
    \  aggregate         1        100          1        0\n\
    \  ack               1         24          1        0\n\
    \  query             1         16          1        0\n\
     \n\
     busiest links (top 10 by bytes)\n\
    \         link     msgs      bytes\n\
    \     0 ->    1        2        116\n\
    \     1 ->    0        2         32\n\
     \n\
     round waterfall (sends per round)\n\
    \     1 |#################### 1 sends, 100 bytes\n\
    \     2 |######################################## 2 sends, 32 bytes\n\
    \     3 |#################### 1 sends, 16 bytes\n"
  in
  Alcotest.(check string) "text golden" expected_text (Causal.to_text r);
  let json = Causal.to_json r in
  let json_prefix =
    "{\"rounds\":3,\"quiesce_round\":3,\"messages\":3,\"delivered\":2,\"dropped\":1,\"query_hops\":1,\"total_bytes\":148,\"critical_path\":{\"hops\":2,\"cp_rounds\":2,\"frac_explained\":0.6667,\"chain\":[{\"msg\":0,\"kind\":\"aggregate\",\"src\":0,\"dst\":1,\"send_round\":1,\"deliver_round\":2,\"bytes\":100},{\"msg\":1,\"kind\":\"ack\",\"src\":1,\"dst\":0,\"send_round\":2,\"deliver_round\":3,\"bytes\":24}]}"
  in
  Alcotest.(check string) "json golden prefix" json_prefix
    (String.sub json 0 (String.length json_prefix));
  (* the DAG itself: the ack's causal predecessor is the aggregate *)
  let dag = Causal.reconstruct causal_fixture in
  Alcotest.(check (list int)) "no unmatched delivers" []
    dag.Causal.unmatched_delivers;
  let m1 = List.nth dag.Causal.msgs 1 in
  Alcotest.(check (option int)) "ack pred" (Some 0) m1.Causal.m_pred;
  Alcotest.(check int) "ack chain" 2 m1.Causal.m_chain

let test_trace_diff () =
  let a = "{\"ev\":\"a\"}\n{\"ev\":\"b\"}\n{\"ev\":\"c\"}\n" in
  Alcotest.(check bool) "identical" true (Trace_diff.diff_strings a a = Trace_diff.Identical);
  (match Trace_diff.diff_strings a "{\"ev\":\"a\"}\n{\"ev\":\"X\"}\n{\"ev\":\"c\"}\n" with
  | Trace_diff.Diverges { line = 2; left = Some l; right = Some r } ->
      Alcotest.(check string) "left line" "{\"ev\":\"b\"}" l;
      Alcotest.(check string) "right line" "{\"ev\":\"X\"}" r
  | _ -> Alcotest.fail "expected divergence at line 2");
  (match Trace_diff.diff_strings a "{\"ev\":\"a\"}\n" with
  | Trace_diff.Diverges { line = 2; left = Some _; right = None } -> ()
  | _ -> Alcotest.fail "expected right side to end at line 2");
  (* a single trailing newline is not a line of its own *)
  Alcotest.(check bool) "trailing newline ignored" true
    (Trace_diff.diff_strings "x\n" "x" = Trace_diff.Identical);
  let rendered =
    Trace_diff.to_string ~left_name:"a.jsonl" ~right_name:"b.jsonl"
      (Trace_diff.Diverges { line = 7; left = Some "l"; right = None })
  in
  Alcotest.(check string) "rendering"
    "traces diverge at line 7\n  a.jsonl: l\n  b.jsonl: <ended at line 6>\n"
    rendered

let test_span () =
  let s = Span.create "work" in
  Alcotest.(check string) "name" "work" (Span.name s);
  let v = Span.time s (fun () -> 41 + 1) in
  Alcotest.(check int) "passes result through" 42 v;
  (try Span.time s (fun () -> raise Exit) with Exit -> ());
  let shown = Format.asprintf "%a" Span.pp s in
  let has sub =
    let n = String.length shown and m = String.length sub in
    let rec go i = i + m <= n && (String.sub shown i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counts timings, also on exception" true (has "over 2 runs");
  Alcotest.(check bool) "mean is half the total" true
    (Float.abs ((2.0 *. Span.mean_s s) -. Span.total_s s) <= 1e-12)

let () =
  Alcotest.run "bwc_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "labels normalized" `Quick test_labels_normalized;
          Alcotest.test_case "type mismatch" `Quick test_type_mismatch;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
          Alcotest.test_case "diff and reset" `Quick test_diff_and_reset;
          Alcotest.test_case "json rendering" `Quick test_json_rendering;
          Alcotest.test_case "text rendering" `Quick test_text_rendering;
        ] );
      ( "json",
        [
          Alcotest.test_case "string escaping" `Quick test_json_escaping;
          Alcotest.test_case "rows layout" `Quick test_json_rows_layout;
          Alcotest.test_case "parse" `Quick test_json_parse;
        ] );
      ( "trace",
        [
          Alcotest.test_case "order and jsonl" `Quick test_trace_order_and_jsonl;
          Alcotest.test_case "jsonl round-trip" `Quick test_trace_jsonl_round_trip;
          Alcotest.test_case "failure events jsonl" `Quick
            test_trace_failure_events_jsonl;
          Alcotest.test_case "daemon events jsonl" `Quick test_trace_daemon_events_jsonl;
          Alcotest.test_case "ring capacity" `Quick test_trace_ring_capacity;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "engine trace byte-identical" `Quick
            test_same_seed_identical_trace;
          Alcotest.test_case "protocol trace byte-identical" `Quick
            test_protocol_trace_deterministic;
          Alcotest.test_case "instrumentation transparent" `Quick
            test_instrumentation_is_transparent;
        ] );
      ( "causal",
        [
          Alcotest.test_case "report golden" `Quick test_causal_report_golden;
          Alcotest.test_case "trace diff" `Quick test_trace_diff;
        ] );
      ("span", [ Alcotest.test_case "span timing" `Quick test_span ]);
    ]
