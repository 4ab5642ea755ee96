(* Tests for bwc_persist: container hygiene (every corruption mode maps
   to a typed error, never an exception), snapshot round-trip byte
   identity, restart-without-reconvergence (a warm restore is already at
   the fixed point and behaves byte-identically to the system that never
   crashed), graceful degradation to cold start, detector mid-lease
   restore, and the crash-restart chaos harness. *)

module Rng = Bwc_stats.Rng
module Fault = Bwc_sim.Fault
module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace
module Protocol = Bwc_core.Protocol
module Detector = Bwc_core.Detector
module System = Bwc_core.System
module Dynamic = Bwc_core.Dynamic
module Ensemble = Bwc_predtree.Ensemble
module Codec = Bwc_persist.Codec
module Snapshot = Bwc_persist.Snapshot
module Chaos = Bwc_persist.Chaos

let dataset ~seed n =
  Bwc_dataset.Planetlab.generate ~rng:(Rng.create seed) ~name:"persist-ds"
    { Bwc_dataset.Planetlab.hp_target with n }

let system ?detector ?(seed = 7) ?(n = 24) () =
  System.create ~seed ?detector (dataset ~seed:(seed + 1) n)

let unwrap_system = function
  | Snapshot.Restored_system s -> s
  | Snapshot.Restored_dynamic _ -> Alcotest.fail "expected a system snapshot"

let decode_system bytes =
  match Snapshot.decode bytes with
  | Ok r -> unwrap_system r
  | Error e -> Alcotest.failf "decode failed: %s" (Codec.error_to_string e)

let err_name = function
  | Codec.Bad_magic -> "bad_magic"
  | Codec.Bad_version _ -> "bad_version"
  | Codec.Truncated -> "truncated"
  | Codec.Bad_checksum -> "bad_checksum"
  | Codec.Corrupt _ -> "corrupt"

(* ----- codec container ----- *)

let test_container_roundtrip () =
  let payload = "i 42\nf 0x1.8p+1\ns 5 he\nlo\n" in
  match Codec.decode (Codec.encode payload) with
  | Ok p -> Alcotest.(check string) "payload back" payload p
  | Error e -> Alcotest.failf "container: %s" (Codec.error_to_string e)

let test_container_rejects () =
  let good = Codec.encode "i 1\n" in
  let check_err name want bytes =
    match Codec.decode bytes with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e -> Alcotest.(check string) name want (err_name e)
  in
  check_err "garbage" "bad_magic" "hello world\nnot a snapshot\n";
  check_err "empty" "bad_magic" "";
  check_err "future version" "bad_version" "BWCSNAP 999\nlen 0 crc 00000000\n";
  check_err "cut header" "truncated" "BWCSNAP";
  check_err "cut payload" "truncated" (String.sub good 0 (String.length good - 2));
  (* flip one payload bit *)
  let flipped = Bytes.of_string good in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 1));
  check_err "bit flip" "bad_checksum" (Bytes.to_string flipped);
  (* trailing garbage and mangled headers are structural corruption *)
  check_err "trailing bytes" "corrupt" (good ^ "x");
  check_err "bad header" "corrupt" "BWCSNAP 1\nlen x crc zzzzzzzz\n"

let test_float_roundtrip_exact () =
  let w = Codec.W.create () in
  let values =
    [ 0.; -0.; 1.5; Float.pi; 1e-308; 1.0 /. 3.0; infinity; neg_infinity; 4.25e17 ]
  in
  List.iter (Codec.W.float w) values;
  let r = Codec.R.create (Codec.W.contents w) in
  List.iter
    (fun v ->
      let back = Codec.R.float r in
      if Int64.bits_of_float back <> Int64.bits_of_float v then
        Alcotest.failf "float %h round-tripped to %h" v back)
    values

(* ----- snapshot round trips ----- *)

let test_snapshot_byte_identity () =
  let sys = system () in
  (* force the lazy index so its counts are in the snapshot too *)
  ignore (System.query_centralized sys ~k:3 ~b:30.0 : int list option);
  let bytes = Snapshot.encode (`System sys) in
  let again = Snapshot.encode (`System (decode_system bytes)) in
  Alcotest.(check bool) "re-snapshot byte-identical" true (String.equal bytes again)

let test_snapshot_restart_without_reconvergence () =
  let sys = system ~n:32 () in
  let restored = decode_system (Snapshot.encode (`System sys)) in
  (* quiesced before the crash => nothing left to reconverge *)
  let rounds = Protocol.run_aggregation (System.protocol restored) in
  Alcotest.(check int) "already at the fixed point" 1 rounds;
  Alcotest.(check int) "no messages resent"
    (Protocol.messages_sent (System.protocol restored))
    (Protocol.messages_sent (System.protocol restored));
  (* same submission-RNG state: the restored system serves the same
     queries as the original from here on *)
  for _ = 1 to 10 do
    let a = System.query sys ~k:4 ~b:25.0 in
    let b = System.query restored ~k:4 ~b:25.0 in
    Alcotest.(check bool) "same query answers" true (a.Bwc_core.Query.cluster = b.Bwc_core.Query.cluster)
  done

let test_snapshot_future_is_deterministic () =
  (* run original and restored copies forward: byte-identical snapshots
     at every step, because the whole engine state (round clock, RNG
     stream) survived *)
  let sys = system ~seed:11 () in
  let restored = decode_system (Snapshot.encode (`System sys)) in
  for _ = 1 to 3 do
    ignore (Protocol.run_round (System.protocol sys) : bool);
    ignore (Protocol.run_round (System.protocol restored) : bool)
  done;
  Alcotest.(check bool) "futures agree" true
    (String.equal
       (Snapshot.encode (`System sys))
       (Snapshot.encode (`System restored)))

let test_snapshot_dynamic_roundtrip () =
  let dyn = Dynamic.create ~seed:5 (dataset ~seed:6 20) in
  let first = List.hd (Dynamic.members dyn) in
  ignore (Dynamic.apply_deferred dyn [ Bwc_sim.Churn.Leave first ] : int);
  ignore (Protocol.run_aggregation (Dynamic.protocol dyn) : int);
  ignore (Dynamic.query_centralized dyn ~k:3 ~b:30.0 : int list option);
  let bytes = Snapshot.encode (`Dynamic dyn) in
  let restored =
    match Snapshot.decode bytes with
    | Ok (Snapshot.Restored_dynamic d) -> d
    | Ok (Snapshot.Restored_system _) -> Alcotest.fail "wrong kind"
    | Error e -> Alcotest.failf "decode failed: %s" (Codec.error_to_string e)
  in
  Alcotest.(check (list int)) "members survive" (Dynamic.members dyn)
    (Dynamic.members restored);
  let again = Snapshot.encode (`Dynamic restored) in
  Alcotest.(check bool) "re-snapshot byte-identical" true (String.equal bytes again);
  (* the restored eviction hook still maintains the restored index *)
  let victim = List.hd (Dynamic.members restored) in
  ignore (Dynamic.apply_deferred restored [ Bwc_sim.Churn.Leave victim ] : int);
  Alcotest.(check bool) "index tracked the leave" false
    (Bwc_core.Find_cluster.Index.is_member (Dynamic.index restored) victim)

let test_snapshot_after_deferred_churn () =
  (* an image taken after a deferred LEAVE or JOIN, before any round
     has refreshed the protocol's topology, must restore: the dump
     refreshes a stale topology before it reads node state *)
  let dyn =
    Dynamic.create ~seed:1 ~initial_members:(List.init 12 Fun.id) (dataset ~seed:1 16)
  in
  let restores label =
    match Snapshot.decode (Snapshot.encode (`Dynamic dyn)) with
    | Ok (Snapshot.Restored_dynamic d) ->
        Alcotest.(check (list int))
          (label ^ ": members") (Dynamic.members dyn) (Dynamic.members d)
    | Ok (Snapshot.Restored_system _) -> Alcotest.fail "wrong kind"
    | Error e -> Alcotest.failf "%s: decode failed: %s" label (Codec.error_to_string e)
  in
  Alcotest.(check int) "leave applied" 1
    (Dynamic.apply_deferred dyn [ Bwc_sim.Churn.Leave 3 ]);
  restores "after leave";
  Alcotest.(check int) "join applied" 1
    (Dynamic.apply_deferred dyn [ Bwc_sim.Churn.Join 14 ]);
  restores "after join"

let test_snapshot_mid_convergence () =
  (* crash in the middle of aggregation: in-flight messages die with the
     process, and the retransmission layer still drives the restored
     system to the same fixed point a never-crashed run reaches *)
  let ds = dataset ~seed:3 24 in
  let reference = System.create ~seed:9 ds in
  let sys = System.create ~seed:9 ~aggregation_rounds:3 ds in
  let restored = decode_system (Snapshot.encode (`System sys)) in
  let (_ : int) = Protocol.run_aggregation (System.protocol restored) in
  let p_ref = System.protocol reference and p_res = System.protocol restored in
  let n = Bwc_dataset.Dataset.size ds in
  let classes = System.classes reference in
  for h = 0 to n - 1 do
    for cls = 0 to Bwc_core.Classes.count classes - 1 do
      Alcotest.(check int)
        (Printf.sprintf "max_reachable host %d class %d" h cls)
        (Protocol.max_reachable p_ref h ~cls)
        (Protocol.max_reachable p_res h ~cls)
    done
  done

(* ----- detector state ----- *)

let test_snapshot_detector_mid_lease () =
  let sys = system ~detector:Detector.default_config ~n:16 () in
  let p = System.protocol sys in
  let victim = List.hd (List.rev (Ensemble.members (System.framework sys))) in
  Protocol.crash_host p victim;
  (* run only until suspicion can exist, not until confirmation *)
  for _ = 1 to Detector.default_config.Detector.suspect_after + 2 do
    ignore (Protocol.run_round p : bool)
  done;
  let restored = decode_system (Snapshot.encode (`System sys)) in
  let pr = System.protocol restored in
  (* a running lease is work still to do: a reactor booted from this
     image must start dirty and keep running rounds *)
  Alcotest.(check bool) "restored mid-lease is not quiescent" false (Protocol.quiescent pr);
  (* the crashed-but-not-yet-evicted member restores crashed: a query
     submitted there is an immediate miss *)
  let q = Protocol.query pr ~at:victim ~k:2 ~cls:0 in
  Alcotest.(check bool) "crashed host restores crashed" false (Bwc_core.Query.found q);
  (* leases kept running: the restored survivors confirm the death and
     evict without re-observing the full silence window *)
  let (_ : int) = Protocol.run_aggregation ~max_rounds:400 pr in
  Alcotest.(check bool) "victim evicted after restore" false
    (Ensemble.is_member (System.framework restored) victim);
  Alcotest.(check bool) "quiescent once evicted" true (Protocol.quiescent pr);
  Alcotest.(check bool) "original also evicts" true
    (let (_ : int) = Protocol.run_aggregation ~max_rounds:400 p in
     not (Ensemble.is_member (System.framework sys) victim))

(* ----- corruption / graceful degradation ----- *)

let corruption_modes =
  [
    ("truncate", Fault.Truncate 100, [ "truncated" ]);
    ("truncate to nothing", Fault.Truncate 0, [ "bad_magic"; "truncated" ]);
    ("bit flips", Fault.Flip_bits 16, [ "bad_checksum"; "corrupt"; "bad_magic"; "truncated"; "bad_version" ]);
    ("stale version", Fault.Stale_version, [ "bad_version" ]);
  ]

let test_corruption_never_panics () =
  let sys = system () in
  let bytes = Snapshot.encode (`System sys) in
  let rng = Rng.create 99 in
  List.iter
    (fun (name, mode, allowed) ->
      let mangled = Fault.corrupt_snapshot ~rng mode bytes in
      match Snapshot.decode mangled with
      | Ok _ -> Alcotest.failf "%s: corrupted snapshot accepted" name
      | Error e ->
          if not (List.mem (err_name e) allowed) then
            Alcotest.failf "%s: unexpected error class %s" name
              (Codec.error_to_string e))
    corruption_modes;
  (* many random heavy mutations: decode is total *)
  for i = 1 to 50 do
    let mangled = Fault.corrupt_snapshot ~rng:(Rng.create i) (Fault.Flip_bits 64) bytes in
    match Snapshot.decode mangled with
    | Ok _ -> Alcotest.failf "mutation %d accepted" i
    | Error (_ : Codec.error) -> ()
  done

let test_restore_or_cold_falls_back () =
  let metrics = Registry.create () in
  let trace = Trace.create () in
  let sys = system () in
  let bytes = Snapshot.encode ~metrics ~trace (`System sys) in
  let mangled = Fault.corrupt_snapshot ~rng:(Rng.create 1) Fault.Stale_version bytes in
  let cold_calls = ref 0 in
  let cold () =
    incr cold_calls;
    Snapshot.Restored_system (system ())
  in
  (* warm path: cold never invoked *)
  let _, status = Snapshot.restore_or_cold ~metrics ~trace ~cold bytes in
  Alcotest.(check bool) "warm" true (status = `Warm);
  Alcotest.(check int) "no cold yet" 0 !cold_calls;
  (* rejected snapshot: cold fallback, queries still served *)
  let restored, status = Snapshot.restore_or_cold ~metrics ~trace ~cold mangled in
  (match status with
  | `Cold (Codec.Bad_version 999) -> ()
  | `Cold e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)
  | `Warm -> Alcotest.fail "accepted a stale snapshot");
  Alcotest.(check int) "cold invoked once" 1 !cold_calls;
  let q = System.query (unwrap_system restored) ~k:3 ~b:25.0 in
  Alcotest.(check bool) "query served after fallback" true
    (match q.Bwc_core.Query.cluster with Some _ -> true | None -> true);
  (* observability of the whole episode *)
  let count name = Registry.get (Registry.snapshot metrics) name in
  Alcotest.(check int) "persist.snapshots" 1 (count "persist.snapshots");
  Alcotest.(check int) "persist.restores" 1 (count "persist.restores");
  Alcotest.(check int) "persist.restore_rejected" 1 (count "persist.restore_rejected");
  Alcotest.(check int) "persist.cold_starts" 1 (count "persist.cold_starts");
  let events = Trace.events trace in
  let has p = List.exists p events in
  Alcotest.(check bool) "snapshot_write traced" true
    (has (function Trace.Snapshot_write _ -> true | _ -> false));
  Alcotest.(check bool) "rejection traced" true
    (has (function Trace.Restore_rejected _ -> true | _ -> false));
  Alcotest.(check bool) "cold restore traced" true
    (has (function Trace.Restore { warm = false; _ } -> true | _ -> false))

(* ----- save/load ----- *)

let test_save_load_file () =
  let path = Filename.temp_file "bwcsnap" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let sys = system () in
      Codec.write_file path (Snapshot.encode (`System sys));
      let restored = match Snapshot.load path with
        | Ok r -> unwrap_system r
        | Error e -> Alcotest.failf "load: %s" (Codec.error_to_string e)
      in
      Alcotest.(check bool) "identical bytes after reload" true
        (String.equal (Snapshot.encode (`System sys))
           (Snapshot.encode (`System restored))))

(* ----- rotation ----- *)

let with_rotation_chain f =
  let path = Filename.temp_file "bwcsnap_rot" ".snap" in
  (* temp_file pre-creates an empty file; we only want the fresh name,
     otherwise rotate correctly shifts the empty image into gen 1 *)
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun g ->
          let p = Snapshot.gen_path path g in
          try Sys.remove p with Sys_error _ -> ())
        [ 0; 1; 2; 3 ])
    (fun () -> f path)

let test_rotate_never_displaces_valid_image () =
  with_rotation_chain (fun path ->
      let sys = system ~seed:51 () in
      let good = Snapshot.encode (`System sys) in
      (match Snapshot.rotate ~keep:3 ~path good with
      | Ok () -> ()
      | Error e -> Alcotest.failf "rotate: %s" (Codec.error_to_string e));
      (* garbage is refused up front: the chain must not shift and the
         only valid image must survive untouched *)
      (match Snapshot.rotate ~keep:3 ~path "garbage, not a container" with
      | Error Codec.Bad_magic -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)
      | Ok () -> Alcotest.fail "rotate accepted garbage");
      Alcotest.(check bool) "valid image still newest" true
        (String.equal good (Codec.read_file path));
      Alcotest.(check bool) "no spurious generation 1" false
        (Sys.file_exists (Snapshot.gen_path path 1)))

let test_rotate_fallback_across_generations () =
  with_rotation_chain (fun path ->
      (* three distinct generations, newest last *)
      let images =
        List.map
          (fun seed -> Snapshot.encode (`System (system ~seed ())))
          [ 61; 62; 63 ]
      in
      List.iter
        (fun img ->
          match Snapshot.rotate ~keep:3 ~path img with
          | Ok () -> ()
          | Error e -> Alcotest.failf "rotate: %s" (Codec.error_to_string e))
        images;
      (* on-disk: gen 0 = seed 63, gen 1 = seed 62, gen 2 = seed 61 *)
      let metrics = Registry.create () in
      (match Snapshot.load_any ~metrics ~keep:3 path with
      | Ok (r, 0) ->
          Alcotest.(check bool) "newest wins when intact" true
            (String.equal (List.nth images 2)
               (Snapshot.encode (`System (unwrap_system r))))
      | Ok (_, g) -> Alcotest.failf "wrong generation %d" g
      | Error _ -> Alcotest.fail "load_any failed on intact chain");
      (* corrupt the two newest generations with different modes: the
         restore must walk past both and land on generation 2 *)
      let rng = Rng.create 17 in
      Codec.write_file path
        (Fault.corrupt_snapshot ~rng (Fault.Flip_bits 11) (Codec.read_file path));
      let g1 = Snapshot.gen_path path 1 in
      Codec.write_file g1
        (Fault.corrupt_snapshot ~rng Fault.Stale_version (Codec.read_file g1));
      (match Snapshot.load_any ~metrics ~keep:3 path with
      | Ok (r, 2) ->
          Alcotest.(check bool) "oldest generation restores" true
            (String.equal (List.nth images 0)
               (Snapshot.encode (`System (unwrap_system r))))
      | Ok (_, g) -> Alcotest.failf "restored wrong generation %d" g
      | Error _ -> Alcotest.fail "fallback generation not restored");
      Alcotest.(check int) "fallback counted" 1
        (Registry.get (Registry.snapshot metrics) "persist.generation_fallbacks");
      (* corrupt the last one too: every generation reports a typed error *)
      let g2 = Snapshot.gen_path path 2 in
      Codec.write_file g2
        (Fault.corrupt_snapshot ~rng (Fault.Truncate 30) (Codec.read_file g2));
      match Snapshot.load_any ~keep:3 path with
      | Ok _ -> Alcotest.fail "restored from a fully corrupt chain"
      | Error rejected ->
          Alcotest.(check (list int)) "every generation reported" [ 0; 1; 2 ]
            (List.map fst rejected))

(* ----- chaos harness ----- *)

let test_chaos_schedule () =
  let ds = dataset ~seed:21 20 in
  let make () = System.create ~seed:13 ds in
  let faults =
    Fault.create ~rng:(Rng.create 2)
      ~system_crashes:
        [
          { Fault.crash_round = 4; restore_after = 0; corrupt = None };
          { Fault.crash_round = 9; restore_after = 2; corrupt = Some (Fault.Flip_bits 8) };
          { Fault.crash_round = 15; restore_after = 1; corrupt = Some Fault.Stale_version };
          { Fault.crash_round = 20; restore_after = 0; corrupt = None };
        ]
      ()
  in
  let final, outcome =
    Chaos.run ~rng:(Rng.create 4) ~faults ~ticks:30 ~cold:make (make ())
  in
  Alcotest.(check int) "crashes" 4 outcome.Chaos.crashes;
  Alcotest.(check int) "warm restores" 2 outcome.Chaos.warm_restores;
  Alcotest.(check int) "cold restores" 2 outcome.Chaos.cold_restores;
  Alcotest.(check int) "rejections recorded" 2 (List.length outcome.Chaos.rejections);
  Alcotest.(check int) "downtime" 3 outcome.Chaos.downtime;
  (* the survivor serves queries and is at the fixed point *)
  let rounds = Protocol.run_aggregation (System.protocol final) in
  Alcotest.(check bool) "stable after chaos" true (rounds <= 2);
  let q = System.query final ~k:3 ~b:25.0 in
  Alcotest.(check bool) "query completes" true (q.Bwc_core.Query.hops >= 0)

(* ----- fault plan validation ----- *)

let test_fault_schedule_validation () =
  let bad mk = match mk () with
    | (_ : Fault.t) -> Alcotest.fail "invalid schedule accepted"
    | exception Invalid_argument _ -> ()
  in
  bad (fun () ->
      Fault.create ~rng:(Rng.create 2)
        ~system_crashes:[ { Fault.crash_round = 0; restore_after = 0; corrupt = None } ]
        ());
  bad (fun () ->
      Fault.create ~rng:(Rng.create 2)
        ~system_crashes:[ { Fault.crash_round = 2; restore_after = -1; corrupt = None } ]
        ());
  bad (fun () ->
      Fault.create ~rng:(Rng.create 2)
        ~system_crashes:
          [
            { Fault.crash_round = 2; restore_after = 0; corrupt = None };
            { Fault.crash_round = 2; restore_after = 1; corrupt = None };
          ]
        ());
  bad (fun () ->
      Fault.create ~rng:(Rng.create 2)
        ~system_crashes:
          [ { Fault.crash_round = 2; restore_after = 0; corrupt = Some (Fault.Flip_bits 0) } ]
        ());
  (* corrupt_snapshot's stale header is the one the codec rejects *)
  let mangled = Fault.corrupt_snapshot ~rng:(Rng.create 1) Fault.Stale_version (Codec.encode "i 1\n") in
  match Codec.decode mangled with
  | Error (Codec.Bad_version 999) -> ()
  | Error e -> Alcotest.failf "stale version surfaced as %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "stale version accepted"

let () =
  Alcotest.run "bwc_persist"
    [
      ( "codec",
        [
          Alcotest.test_case "container round trip" `Quick test_container_roundtrip;
          Alcotest.test_case "container rejects" `Quick test_container_rejects;
          Alcotest.test_case "floats bit-exact" `Quick test_float_roundtrip_exact;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "byte identity" `Quick test_snapshot_byte_identity;
          Alcotest.test_case "restart without reconvergence" `Quick
            test_snapshot_restart_without_reconvergence;
          Alcotest.test_case "deterministic future" `Quick
            test_snapshot_future_is_deterministic;
          Alcotest.test_case "dynamic round trip" `Quick test_snapshot_dynamic_roundtrip;
          Alcotest.test_case "after deferred churn" `Quick test_snapshot_after_deferred_churn;
          Alcotest.test_case "mid-convergence crash" `Quick test_snapshot_mid_convergence;
          Alcotest.test_case "detector mid-lease" `Quick test_snapshot_detector_mid_lease;
          Alcotest.test_case "save/load file" `Quick test_save_load_file;
          Alcotest.test_case "rotate refuses garbage" `Quick
            test_rotate_never_displaces_valid_image;
          Alcotest.test_case "rotate fallback chain" `Quick
            test_rotate_fallback_across_generations;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "corruption never panics" `Quick test_corruption_never_panics;
          Alcotest.test_case "cold fallback" `Quick test_restore_or_cold_falls_back;
          Alcotest.test_case "schedule validation" `Quick test_fault_schedule_validation;
        ] );
      ( "chaos",
        [ Alcotest.test_case "crash-restart schedule" `Quick test_chaos_schedule ] );
    ]
