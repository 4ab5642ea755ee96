(* Deterministic tests for the bwclusterd reactor core: wire protocol,
   typed admission shedding, deadline timeouts, graceful degradation
   with explicit staleness, retry backoff, drain-then-quiesce shutdown,
   script replay determinism, and warm boot across rotated snapshot
   generations (including corruption fallback). *)

module Rng = Bwc_stats.Rng
module Fault = Bwc_sim.Fault
module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace
module Dynamic = Bwc_core.Dynamic
module Codec = Bwc_persist.Codec
module Snapshot = Bwc_persist.Snapshot
module Admission = Bwc_daemon.Admission
module Wire = Bwc_daemon.Wire
module Reactor = Bwc_daemon.Reactor
module Script = Bwc_daemon.Script
module Lifecycle = Bwc_daemon.Lifecycle

let dataset ~seed n =
  Bwc_dataset.Planetlab.generate ~rng:(Rng.create seed) ~name:"daemon-ds"
    { Bwc_dataset.Planetlab.hp_target with n }

let range n = List.init n (fun i -> i)

(* a small system with one spare host (n-1) kept out for JOIN tests *)
let dyn ?(seed = 11) ?(n = 16) () =
  Dynamic.create ~seed ~initial_members:(range (n - 1)) (dataset ~seed:(seed + 1) n)

let reactor ?metrics ?trace ?(config = Reactor.default_config) ?seed ?n () =
  Reactor.create ?metrics ?trace config (dyn ?seed ?n ())

let render_all outs =
  List.map (fun (o : Reactor.output) -> Wire.render o.Reactor.response) outs

let check_strings = Alcotest.(check (list string))

(* ----- wire ----- *)

let test_wire_parse () =
  (match Wire.parse "QUERY q1 k=3 b=12.5 deadline=9" with
  | Ok (Wire.Query { id = "q1"; k = 3; b; deadline = Some 9 }) ->
      Alcotest.(check (float 1e-9)) "b" 12.5 b
  | _ -> Alcotest.fail "QUERY did not parse");
  (match Wire.parse "MEAS m7 src=1 dst=2 bw=33.0" with
  | Ok (Wire.Measure { id = "m7"; src = 1; dst = 2; _ }) -> ()
  | _ -> Alcotest.fail "MEAS did not parse");
  (match Wire.parse "JOIN j1 host=5" with
  | Ok (Wire.Join { id = "j1"; host = 5 }) -> ()
  | _ -> Alcotest.fail "JOIN did not parse");
  List.iter
    (fun bad ->
      match Wire.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed line %S" bad)
    [ ""; "NOPE"; "QUERY"; "QUERY q1 k=x b=1"; "JOIN j1"; "MEAS m1 src=1" ]

let test_wire_render () =
  check_strings "responses"
    [
      "PONG";
      "OK q1 cluster=1,2,3 hops=2 served=live degraded=0 staleness=0";
      "OK q2 cluster=none hops=0 served=index degraded=1 staleness=7 lo=2 hi=5";
      "SHED m1 class=meas reason=pressure";
      "TIMEOUT q3 waited=9 deadline=8";
      "ACK j1 class=churn applied=1";
      "REJECTED x reason=bad_host attempts=0";
    ]
    (List.map Wire.render
       [
         Wire.Pong;
         Wire.Answer
           {
             id = "q1";
             cluster = Some [ 1; 2; 3 ];
             hops = 2;
             served = Wire.Live;
             degraded = false;
             staleness = 0;
             bounds = None;
           };
         Wire.Answer
           {
             id = "q2";
             cluster = None;
             hops = 0;
             served = Wire.Index;
             degraded = true;
             staleness = 7;
             bounds = Some (2, 5);
           };
         Wire.Shed { id = "m1"; cls = "meas"; reason = "pressure" };
         Wire.Timeout { id = "q3"; waited = 9; deadline = 8 };
         Wire.Acked { id = "j1"; cls = "churn"; applied = true };
         Wire.Rejected { id = "x"; reason = "bad_host"; attempts = 0 };
       ])

(* ----- immediate requests ----- *)

let test_immediate () =
  let r = reactor () in
  check_strings "ping" [ "PONG" ] (render_all (Reactor.handle_line r ~now:0 ~conn:1 "PING"));
  (match Reactor.handle_line r ~now:0 ~conn:1 "HEALTH" with
  | [ { Reactor.response = Wire.Health_report { mode = "normal"; members = 15; _ }; _ } ]
    -> ()
  | _ -> Alcotest.fail "HEALTH shape");
  match Reactor.handle_line r ~now:0 ~conn:1 "garbage here" with
  | [ { Reactor.response = Wire.Parse_error _; _ } ] -> ()
  | _ -> Alcotest.fail "ERR expected"

(* ----- admission shedding ----- *)

let shallow_config =
  {
    Reactor.default_config with
    Reactor.admission =
      {
        Admission.churn = { Admission.cap = 4; rate = 10; burst = 10 };
        query = { Admission.cap = 2; rate = 10; burst = 10 };
        meas = { Admission.cap = 8; rate = 1; burst = 2 };
      };
  }

let test_shed_queue_full () =
  let r = reactor ~config:shallow_config () in
  let offer i =
    render_all
      (Reactor.handle_line r ~now:0 ~conn:0 (Printf.sprintf "QUERY q%d k=2 b=1.0" i))
  in
  check_strings "admitted" [] (offer 1);
  check_strings "admitted" [] (offer 2);
  check_strings "shed" [ "SHED q3 class=query reason=queue_full" ] (offer 3)

let test_shed_rate_limit () =
  let r = reactor ~config:shallow_config () in
  let offer i =
    render_all
      (Reactor.handle_line r ~now:0 ~conn:0
         (Printf.sprintf "MEAS m%d src=0 dst=1 bw=10.0" i))
  in
  check_strings "burst 1" [] (offer 1);
  check_strings "burst 2" [] (offer 2);
  check_strings "bucket empty" [ "SHED m3 class=meas reason=rate_limit" ] (offer 3)

let test_shed_pressure () =
  let r = reactor ~config:shallow_config () in
  (* churn lane capacity 4: three queued events put it over half *)
  List.iter
    (fun i ->
      check_strings "churn admitted" []
        (render_all
           (Reactor.handle_line r ~now:0 ~conn:0 (Printf.sprintf "LEAVE c%d host=%d" i i))))
    [ 1; 2; 3 ];
  check_strings "gossip shed under churn pressure"
    [ "SHED m1 class=meas reason=pressure" ]
    (render_all (Reactor.handle_line r ~now:0 ~conn:0 "MEAS m1 src=0 dst=1 bw=5.0"))

(* ----- deadlines ----- *)

let test_deadline_timeout () =
  let config =
    { shallow_config with Reactor.work_budget = 1; churn_share = 0; default_deadline = 1 }
  in
  let r = reactor ~config () in
  check_strings "q1 in" []
    (render_all (Reactor.handle_line r ~now:0 ~conn:0 "QUERY q1 k=2 b=1.0"));
  check_strings "q2 in" []
    (render_all (Reactor.handle_line r ~now:0 ~conn:0 "QUERY q2 k=2 b=1.0 deadline=1"));
  (* tick 1: budget 1 answers q1; tick 2: q2 has waited 2 > deadline 1 *)
  (match render_all (Reactor.tick r ~now:1) with
  | [ first ] when String.length first >= 5 && String.sub first 0 5 = "OK q1" -> ()
  | out -> Alcotest.failf "expected q1 answer, got [%s]" (String.concat "; " out));
  check_strings "typed timeout" [ "TIMEOUT q2 waited=2 deadline=1" ]
    (render_all (Reactor.tick r ~now:2))

(* ----- measurement ingestion ----- *)

(* the dataset stays ground truth, so the reactor drops a MEAS value;
   its acknowledgement must say nothing was applied *)
let test_meas_ack_not_applied () =
  let r = reactor () in
  check_strings "meas admitted" []
    (render_all (Reactor.handle_line r ~now:0 ~conn:0 "MEAS m1 src=1 dst=2 bw=44"));
  check_strings "meas acked, not applied" [ "ACK m1 class=meas applied=0" ]
    (render_all (Reactor.tick r ~now:1))

(* a bandwidth must be positive and finite: nan, inf and an overflowing
   literal are refused at the door, and no refused MEAS counts toward
   the repropagation cadence *)
let test_non_finite_bandwidth () =
  let metrics = Registry.create () in
  let r = reactor ~metrics () in
  let refused line = render_all (Reactor.handle_line r ~now:0 ~conn:0 line) in
  List.iter
    (fun b ->
      check_strings ("QUERY b=" ^ b)
        [ "REJECTED q1 reason=bad_request attempts=0" ]
        (refused ("QUERY q1 k=3 b=" ^ b));
      check_strings ("MEAS bw=" ^ b)
        [ "REJECTED m1 reason=bad_measurement attempts=0" ]
        (refused ("MEAS m1 src=1 dst=2 bw=" ^ b)))
    [ "nan"; "inf"; "-inf"; "1e400" ];
  check_strings "nothing admitted, nothing answered" []
    (render_all (Reactor.tick r ~now:1));
  Alcotest.(check int) "no admissions" 0
    (Registry.sum_by_name (Registry.snapshot metrics) "daemon.admitted")

(* ----- graceful degradation ----- *)

let test_degraded_staleness () =
  let config = { Reactor.default_config with Reactor.stabilize_budget = 1 } in
  let metrics = Registry.create () in
  let r = reactor ~metrics ~config ~n:24 () in
  (* a churn event makes the aggregation stale; with 1 round/tick it
     stays stale for several ticks, during which queries must answer
     from the index with an explicit staleness bound *)
  check_strings "leave admitted" []
    (render_all (Reactor.handle_line r ~now:0 ~conn:0 "LEAVE c1 host=3"));
  let out1 = render_all (Reactor.tick r ~now:1) in
  check_strings "leave acked" [ "ACK c1 class=churn applied=1" ] out1;
  check_strings "query admitted" []
    (render_all (Reactor.handle_line r ~now:1 ~conn:0 "QUERY q1 k=2 b=1.0"));
  (match Reactor.tick r ~now:2 with
  | [ { Reactor.response = Wire.Answer { id = "q1"; served = Wire.Index; degraded = true; staleness; _ }; _ } ]
    ->
      if staleness <= 0 then Alcotest.failf "staleness %d not positive" staleness
  | out ->
      Alcotest.failf "expected degraded answer, got [%s]"
        (String.concat "; " (render_all out)));
  (* let it reconverge, then expect live service again *)
  let now = ref 2 in
  while Reactor.staleness r ~now:!now > 0 && !now < 200 do
    incr now;
    let (_ : Reactor.output list) = Reactor.tick r ~now:!now in
    ()
  done;
  Alcotest.(check bool) "reconverged" true (Reactor.staleness r ~now:!now = 0);
  check_strings "query admitted" []
    (render_all (Reactor.handle_line r ~now:!now ~conn:0 "QUERY q2 k=2 b=1.0"));
  (match Reactor.tick r ~now:(!now + 1) with
  | [ { Reactor.response = Wire.Answer { id = "q2"; degraded = false; staleness = 0; _ }; _ } ]
    -> ()
  | out ->
      Alcotest.failf "expected live answer, got [%s]"
        (String.concat "; " (render_all out)))

(* ----- watchdog ----- *)

let test_watchdog_degrades () =
  (* zero stabilization budget: convergence stalls forever, so the
     watchdog must fire and flip the reactor into degraded mode *)
  let config =
    { Reactor.default_config with Reactor.stabilize_budget = 0; stall_after = 3 }
  in
  let metrics = Registry.create () in
  let r = reactor ~metrics ~config () in
  check_strings "leave admitted" []
    (render_all (Reactor.handle_line r ~now:0 ~conn:0 "LEAVE c1 host=2"));
  for now = 1 to 6 do
    let (_ : Reactor.output list) = Reactor.tick r ~now in
    ()
  done;
  Alcotest.(check string) "mode" "degraded" (Reactor.mode_name (Reactor.mode r));
  let fires = Registry.get (Registry.snapshot metrics) "daemon.watchdog_fires" in
  Alcotest.(check bool) "watchdog fired" true (fires >= 1)

(* ----- retry with backoff ----- *)

let test_retry_backoff () =
  let config =
    {
      Reactor.default_config with
      Reactor.ingest_fail = 1.0;
      max_attempts = 3;
      retry_base = 2;
      retry_jitter = 2;
    }
  in
  let trace = Trace.create () in
  let r = reactor ~trace ~config () in
  check_strings "join admitted" []
    (render_all (Reactor.handle_line r ~now:0 ~conn:0 "JOIN j1 host=15"));
  let rejected = ref None in
  for now = 1 to 60 do
    List.iter
      (fun (o : Reactor.output) ->
        match o.Reactor.response with
        | Wire.Rejected { id = "j1"; reason; attempts } ->
            rejected := Some (reason, attempts, now)
        | _ -> ())
      (Reactor.tick r ~now)
  done;
  (match !rejected with
  | Some ("ingest_failed", 3, _) -> ()
  | Some (reason, attempts, _) ->
      Alcotest.failf "wrong rejection %s/%d" reason attempts
  | None -> Alcotest.fail "never rejected");
  let retries =
    List.filter_map
      (function
        | Trace.Daemon_retry { round; due; attempt; _ } -> Some (round, due, attempt)
        | _ -> None)
      (Trace.events trace)
  in
  Alcotest.(check int) "two retries before giving up" 2 (List.length retries);
  List.iter
    (fun (round, due, _) ->
      Alcotest.(check bool) "backoff in the future" true (due > round))
    retries

(* ----- drain shutdown ----- *)

let test_drain_shutdown () =
  let r = reactor () in
  check_strings "work admitted" []
    (render_all (Reactor.handle_line r ~now:0 ~conn:0 "QUERY q1 k=2 b=1.0"));
  check_strings "draining" [ "DRAINING" ]
    (render_all (Reactor.handle_line r ~now:0 ~conn:0 "SHUTDOWN"));
  check_strings "new work shed" [ "SHED q2 class=query reason=draining" ]
    (render_all (Reactor.handle_line r ~now:0 ~conn:0 "QUERY q2 k=2 b=1.0"));
  let answered = ref false in
  let now = ref 0 in
  while (not (Reactor.drained r)) && !now < 100 do
    incr now;
    List.iter
      (fun (o : Reactor.output) ->
        match o.Reactor.response with
        | Wire.Answer { id = "q1"; _ } | Wire.Timeout { id = "q1"; _ } ->
            answered := true
        | _ -> ())
      (Reactor.tick r ~now:!now)
  done;
  Alcotest.(check bool) "drained" true (Reactor.drained r);
  Alcotest.(check bool) "queued query still answered" true !answered

(* ----- 1:1 response accounting under overload ----- *)

let overload_script n =
  let rng = Rng.create 99 in
  List.concat_map
    (fun t ->
      List.concat_map
        (fun i ->
          let id = Printf.sprintf "r%d_%d" t i in
          let pick = Rng.int rng 10 in
          let line =
            if pick < 5 then
              Printf.sprintf "MEAS %s src=%d dst=%d bw=%f" id (Rng.int rng 15)
                (Rng.int rng 15) (1. +. Rng.float rng 50.)
            else if pick < 8 then Printf.sprintf "QUERY %s k=2 b=1.0" id
            else if pick < 9 then Printf.sprintf "JOIN %s host=%d" id (Rng.int rng 16)
            else Printf.sprintf "LEAVE %s host=%d" id (Rng.int rng 16)
          in
          [ Script.line ~at:t ~conn:0 line ])
        (range 12))
    (range n)

let test_overload_accounting () =
  let script = overload_script 10 in
  let r = reactor ~config:{ Reactor.default_config with Reactor.stabilize_budget = 2 } () in
  let events = Script.run r script in
  Alcotest.(check bool) "reactor drained" true (Reactor.drained r);
  (* exactly one response per request id, no silent drops *)
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (e : Script.event) ->
      let id =
        match e.Script.response with
        | Wire.Answer { id; _ }
        | Wire.Acked { id; _ }
        | Wire.Shed { id; _ }
        | Wire.Timeout { id; _ }
        | Wire.Rejected { id; _ } ->
            Some id
        | _ -> None
      in
      match id with
      | Some id -> Hashtbl.replace tbl id (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id))
      | None -> ())
    events;
  List.iter
    (fun (e : Script.entry) ->
      let id = List.nth (String.split_on_char ' ' e.Script.line) 1 in
      match Hashtbl.find_opt tbl id with
      | Some 1 -> ()
      | Some k -> Alcotest.failf "request %s answered %d times" id k
      | None -> Alcotest.failf "request %s silently dropped" id)
    script;
  Alcotest.(check int) "every response matched a request" (List.length script)
    (Hashtbl.length tbl)

(* LEAVEs shrink the system to one member; the next JOIN must apply
   and the system must go on answering *)
let test_join_after_one_member () =
  let r = reactor ~n:8 () in
  let leave h = Script.line ~at:h ~conn:0 (Printf.sprintf "LEAVE l%d host=%d" h h) in
  let events =
    Script.run r
      (List.concat
         [
           List.map leave (range 6);
           [
             Script.line ~at:10 ~conn:0 "JOIN j1 host=7";
             Script.line ~at:40 ~conn:0 "QUERY q1 k=2 b=1.0";
           ];
         ])
  in
  let rendered =
    List.map (fun (e : Script.event) -> Wire.render e.Script.response) events
  in
  Alcotest.(check bool) "join applied" true
    (List.mem "ACK j1 class=churn applied=1" rendered);
  Alcotest.(check (list int)) "members" [ 6; 7 ]
    (List.sort compare (Dynamic.members (Reactor.system r)));
  match
    List.find_map
      (fun (e : Script.event) ->
        match e.Script.response with
        | Wire.Answer { id = "q1"; cluster; _ } -> Some cluster
        | _ -> None)
      events
  with
  | Some (Some cluster) ->
      Alcotest.(check (list int)) "answer" [ 6; 7 ] (List.sort compare cluster)
  | Some None -> Alcotest.fail "query found no cluster"
  | None -> Alcotest.fail "query got no answer"

(* ----- replay determinism ----- *)

let test_replay_determinism () =
  let run () =
    let metrics = Registry.create () in
    let trace = Trace.create () in
    let r =
      Reactor.create ~metrics ~trace
        { Reactor.default_config with Reactor.ingest_fail = 0.3; stabilize_budget = 2 }
        (dyn ~seed:21 ~n:16 ())
    in
    let events = Script.run r (overload_script 8) in
    (Script.transcript events, Trace.to_jsonl trace)
  in
  let t1, tr1 = run () in
  let t2, tr2 = run () in
  Alcotest.(check bool) "transcripts byte-identical" true (String.equal t1 t2);
  Alcotest.(check bool) "traces byte-identical" true (String.equal tr1 tr2);
  Alcotest.(check bool) "transcript non-trivial" true (String.length t1 > 100)

(* ----- lifecycle: rotation + corruption fallback ----- *)

let tmpname suffix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bwc_daemon_%d_%s" (Unix.getpid ()) suffix)

let cleanup path =
  List.iter
    (fun g ->
      let p = Snapshot.gen_path path g in
      if Sys.file_exists p then Sys.remove p)
    [ 0; 1; 2; 3 ]

let test_rotate_keeps_generations () =
  let path = tmpname "rot.bwcsnap" in
  cleanup path;
  let d = dyn ~seed:31 () in
  let snap () =
    match Lifecycle.snapshot ~keep:3 ~path d with
    | Ok bytes -> bytes
    | Error e -> Alcotest.failf "snapshot failed: %s" (Codec.error_to_string e)
  in
  let (_ : int) = snap () in
  let (_ : int) = snap () in
  let (_ : int) = snap () in
  let (_ : int) = snap () in
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "generation %d exists" g)
        true
        (Sys.file_exists (Snapshot.gen_path path g)))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "generation 3 fell off" false
    (Sys.file_exists (Snapshot.gen_path path 3));
  (* rotating garbage is refused without touching the chain *)
  let before = Codec.read_file path in
  (match Snapshot.rotate ~keep:3 ~path "not a snapshot" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "rotate accepted garbage");
  Alcotest.(check bool) "newest image untouched" true
    (String.equal before (Codec.read_file path));
  cleanup path

let test_corrupt_fallback_across_generations () =
  let path = tmpname "fb.bwcsnap" in
  cleanup path;
  let d = dyn ~seed:41 () in
  let members_before = Dynamic.members d in
  let snap () =
    match Lifecycle.snapshot ~keep:3 ~path d with
    | Ok (_ : int) -> ()
    | Error e -> Alcotest.failf "snapshot failed: %s" (Codec.error_to_string e)
  in
  snap ();
  snap ();
  snap ();
  (* corrupt the two newest generations on disk; restart must fall back
     to generation 2 and still boot warm *)
  let rng = Rng.create 5 in
  List.iter
    (fun (g, mode) ->
      let p = Snapshot.gen_path path g in
      Codec.write_file p (Fault.corrupt_snapshot ~rng mode (Codec.read_file p)))
    [ (0, Fault.Flip_bits 13); (1, Fault.Truncate 40) ];
  let metrics = Registry.create () in
  let boot =
    Lifecycle.boot ~metrics ~keep:3 ~path
      ~cold:(fun () -> Alcotest.fail "must not cold start")
      ()
  in
  Alcotest.(check bool) "warm" true boot.Lifecycle.warm;
  Alcotest.(check (option int)) "generation 2 won" (Some 2) boot.Lifecycle.generation;
  Alcotest.(check (list int)) "membership restored" members_before
    (Dynamic.members boot.Lifecycle.system);
  Alcotest.(check int) "fallback counted" 1
    (Registry.get (Registry.snapshot metrics) "persist.generation_fallbacks");
  (* all generations corrupt -> typed errors for each, cold fallback *)
  let rng = Rng.create 6 in
  List.iter
    (fun g ->
      let p = Snapshot.gen_path path g in
      Codec.write_file p (Fault.corrupt_snapshot ~rng (Fault.Flip_bits 17) (Codec.read_file p)))
    [ 0; 1; 2 ];
  let cold_hit = ref false in
  let boot2 =
    Lifecycle.boot ~keep:3 ~path
      ~cold:(fun () ->
        cold_hit := true;
        d)
      ()
  in
  Alcotest.(check bool) "cold fallback" true !cold_hit;
  Alcotest.(check bool) "not warm" false boot2.Lifecycle.warm;
  Alcotest.(check int) "every generation reported" 3
    (List.length boot2.Lifecycle.rejected);
  cleanup path

(* a lone corrupt generation: the restore step hands its rejection to the
   caller, which reports it (as bwclusterd logs it) before the cold
   builder runs *)
let test_rejection_reported_before_cold_build () =
  let path = tmpname "rej.bwcsnap" in
  cleanup path;
  let d = dyn ~seed:43 () in
  Codec.write_file path
    (Fault.corrupt_snapshot ~rng:(Rng.create 7) (Fault.Flip_bits 13)
       (Snapshot.encode (`Dynamic d)));
  let log = ref [] in
  let loaded = Snapshot.load_any ~keep:3 path in
  List.iter
    (fun (g, e) -> log := Printf.sprintf "rejected %d: %s" g (Codec.error_to_string e) :: !log)
    (snd loaded);
  let boot =
    Lifecycle.warm_or_cold
      ~cold:(fun () ->
        log := "cold" :: !log;
        d)
      loaded
  in
  check_strings "rejection reported, then the cold build"
    [ "rejected 0: " ^ Codec.error_to_string Codec.Bad_checksum; "cold" ]
    (List.rev !log);
  Alcotest.(check bool) "not warm" false boot.Lifecycle.warm;
  Alcotest.(check int) "the rejection kept in the boot" 1 (List.length boot.Lifecycle.rejected);
  cleanup path

(* generation 0 holds [fixture], an image the version-1 encoder wrote,
   generation 1 a current daemon image: the boot must reject the first
   by its version and restore the second, not start cold *)
let boot_past_version_1 ~fixture ~seed =
  let path = tmpname "v1.bwcsnap" in
  cleanup path;
  let d = dyn ~seed () in
  Codec.write_file (Snapshot.gen_path path 1) (Snapshot.encode (`Dynamic d));
  Codec.write_file path (Codec.read_file fixture);
  let metrics = Registry.create () in
  let trace = Trace.create () in
  let boot =
    Lifecycle.boot ~metrics ~trace ~keep:3 ~path
      ~cold:(fun () -> Alcotest.fail "must not cold start")
      ()
  in
  Alcotest.(check bool) "warm" true boot.Lifecycle.warm;
  Alcotest.(check (option int)) "generation 1 won" (Some 1) boot.Lifecycle.generation;
  (match boot.Lifecycle.rejected with
  | [ (0, Codec.Bad_version 1) ] -> ()
  | rejected ->
      Alcotest.failf "expected generation 0 rejected as version 1, got [%s]"
        (String.concat "; "
           (List.map
              (fun (g, e) -> Printf.sprintf "%d: %s" g (Codec.error_to_string e))
              rejected)));
  Alcotest.(check (list int)) "membership restored" (Dynamic.members d)
    (Dynamic.members boot.Lifecycle.system);
  let count name = Registry.get (Registry.snapshot metrics) name in
  Alcotest.(check int) "persist.restore_rejected" 1 (count "persist.restore_rejected");
  Alcotest.(check int) "persist.restores" 1 (count "persist.restores");
  Alcotest.(check int) "persist.cold_starts" 0 (count "persist.cold_starts");
  let restore_events =
    List.filter_map
      (function
        | Trace.Restore_rejected _ -> Some "rejected"
        | Trace.Restore { warm; _ } -> Some (if warm then "warm" else "cold")
        | _ -> None)
      (Trace.events trace)
  in
  check_strings "restore trace" [ "rejected"; "warm" ] restore_events;
  cleanup path

(* the retired static ["system"] kind was only ever written as version 1 *)
let test_retired_kind_falls_back_a_generation () =
  boot_past_version_1 ~fixture:"fixtures/snapshot/system-kind.bwcsnap" ~seed:51

let test_version_1_falls_back_a_generation () =
  boot_past_version_1 ~fixture:"fixtures/snapshot/dynamic-v1.bwcsnap" ~seed:52

let test_degraded_join_snapshot_boots_warm () =
  (* a degraded reactor admits a JOIN and snapshots before any round
     has run: the image must restore, so the next boot is warm *)
  let path = tmpname "join.bwcsnap" in
  cleanup path;
  let config =
    { Reactor.default_config with Reactor.stabilize_budget = 0; stall_after = 2 }
  in
  let r = reactor ~config () in
  let (_ : Reactor.output list) = Reactor.handle_line r ~now:0 ~conn:0 "LEAVE c1 host=2" in
  for now = 1 to 4 do
    let (_ : Reactor.output list) = Reactor.tick r ~now in
    ()
  done;
  Alcotest.(check string) "degraded" "degraded" (Reactor.mode_name (Reactor.mode r));
  let (_ : Reactor.output list) = Reactor.handle_line r ~now:5 ~conn:0 "JOIN j1 host=15" in
  check_strings "join acked" [ "ACK j1 class=churn applied=1" ]
    (render_all (Reactor.tick r ~now:5));
  check_strings "snapshot requested" [ "SNAPSHOTTING" ]
    (render_all (Reactor.handle_line r ~now:6 ~conn:0 "SNAPSHOT"));
  Alcotest.(check bool) "snapshot due" true (Reactor.take_snapshot_request r);
  (match Lifecycle.snapshot ~path (Reactor.system r) with
  | Ok (_ : int) -> ()
  | Error e -> Alcotest.failf "snapshot failed: %s" (Codec.error_to_string e));
  let boot =
    Lifecycle.boot ~path ~cold:(fun () -> Alcotest.fail "must not cold start") ()
  in
  Alcotest.(check bool) "warm" true boot.Lifecycle.warm;
  Alcotest.(check (list int)) "joined host restored" (Dynamic.members (Reactor.system r))
    (Dynamic.members boot.Lifecycle.system);
  cleanup path

let test_warm_boot_mid_convergence () =
  (* an image taken mid-convergence (deferred LEAVE, two rounds)
     restores dirty nodes and unacked updates: the booted reactor must
     keep running rounds until it converges, and then answer exactly as
     the writer does once the writer has converged too *)
  let d = Dynamic.create ~seed:7 ~initial_members:(range 40) (dataset ~seed:8 48) in
  let p = Dynamic.protocol d in
  let (_ : int) = Dynamic.apply_deferred d [ Bwc_sim.Churn.Leave 5 ] in
  for _ = 1 to 2 do
    let (_ : bool) = Bwc_core.Protocol.run_round p in
    ()
  done;
  Alcotest.(check bool) "image taken mid-convergence" false (Bwc_core.Protocol.quiescent p);
  let restored =
    match Snapshot.decode (Snapshot.encode (`Dynamic d)) with
    | Ok d -> d
    | Error e -> Alcotest.failf "decode failed: %s" (Codec.error_to_string e)
  in
  let r = Reactor.create Reactor.default_config restored in
  for now = 1 to 50 do
    let (_ : Reactor.output list) = Reactor.tick r ~now in
    ()
  done;
  Alcotest.(check int) "converged" 0 (Reactor.staleness r ~now:50);
  let (_ : int) = Bwc_core.Protocol.run_aggregation p in
  let classes = Bwc_core.Classes.count (Dynamic.classes d) in
  List.iter
    (fun at ->
      List.iter
        (fun k ->
          for cls = 0 to classes - 1 do
            let probe sys = Bwc_core.Protocol.query (Dynamic.protocol sys) ~at ~k ~cls in
            if probe d <> probe restored then
              Alcotest.failf "live query at=%d k=%d cls=%d differs from the writer"
                at k cls
          done)
        [ 2; 4; 8 ])
    (Dynamic.members d);
  let expected = Dynamic.query d ~k:4 ~b:10.0 in
  let (_ : Reactor.output list) =
    Reactor.handle_line r ~now:51 ~conn:0 "QUERY q1 k=4 b=10"
  in
  match Reactor.tick r ~now:52 with
  | [ { Reactor.response = Wire.Answer { id = "q1"; cluster; served = Wire.Live; _ }; _ } ] ->
      Alcotest.(check (option (list int)))
        "live answer" expected.Bwc_core.Query.cluster cluster;
      Alcotest.(check bool) "found" true (cluster <> None)
  | out ->
      Alcotest.failf "expected a live answer, got [%s]" (String.concat "; " (render_all out))

let () =
  Alcotest.run "bwc_daemon"
    [
      ( "wire",
        [
          Alcotest.test_case "parse" `Quick test_wire_parse;
          Alcotest.test_case "render" `Quick test_wire_render;
        ] );
      ( "reactor",
        [
          Alcotest.test_case "immediate requests" `Quick test_immediate;
          Alcotest.test_case "shed queue_full" `Quick test_shed_queue_full;
          Alcotest.test_case "shed rate_limit" `Quick test_shed_rate_limit;
          Alcotest.test_case "shed pressure" `Quick test_shed_pressure;
          Alcotest.test_case "deadline timeout" `Quick test_deadline_timeout;
          Alcotest.test_case "meas ack not applied" `Quick test_meas_ack_not_applied;
          Alcotest.test_case "non-finite bandwidth rejected" `Quick
            test_non_finite_bandwidth;
          Alcotest.test_case "degraded staleness" `Quick test_degraded_staleness;
          Alcotest.test_case "watchdog degrades" `Quick test_watchdog_degrades;
          Alcotest.test_case "retry backoff" `Quick test_retry_backoff;
          Alcotest.test_case "drain shutdown" `Quick test_drain_shutdown;
          Alcotest.test_case "overload accounting" `Quick test_overload_accounting;
          Alcotest.test_case "join after one member" `Quick test_join_after_one_member;
          Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "rotate keeps generations" `Quick
            test_rotate_keeps_generations;
          Alcotest.test_case "degraded join snapshot boots warm" `Quick
            test_degraded_join_snapshot_boots_warm;
          Alcotest.test_case "warm boot mid-convergence converges" `Quick
            test_warm_boot_mid_convergence;
          Alcotest.test_case "corrupt fallback" `Quick
            test_corrupt_fallback_across_generations;
          Alcotest.test_case "rejection reported before the cold build" `Quick
            test_rejection_reported_before_cold_build;
          Alcotest.test_case "retired snapshot kind falls back a generation" `Quick
            test_retired_kind_falls_back_a_generation;
          Alcotest.test_case "version-1 image falls back a generation" `Quick
            test_version_1_falls_back_a_generation;
        ] );
    ]
