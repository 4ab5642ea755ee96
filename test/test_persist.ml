(* Tests for bwc_persist: container hygiene (every corruption mode maps
   to a typed error, never an exception), snapshot round-trip byte
   identity, restart-without-reconvergence (a warm restore is already at
   the fixed point and behaves byte-identically to the system that never
   crashed), graceful degradation to cold start, what an image refuses
   to hold (a failure detector, a crashed member), rotated generations,
   writes that fail and writes into a pipe, the protocol section's
   node-info slot table, format versions, index counts no pair can
   have, and protocol dumps whose links disagree with the overlay or
   with their peers. *)

module Rng = Bwc_stats.Rng
module Fault = Bwc_sim.Fault
module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace
module Protocol = Bwc_core.Protocol
module Detector = Bwc_core.Detector
module Dynamic = Bwc_core.Dynamic
module Ensemble = Bwc_predtree.Ensemble
module Codec = Bwc_persist.Codec
module Snapshot = Bwc_persist.Snapshot

let dataset ~seed n =
  Bwc_dataset.Planetlab.generate ~rng:(Rng.create seed) ~name:"persist-ds"
    { Bwc_dataset.Planetlab.hp_target with n }

let system ?(seed = 7) ?(n = 24) () = Dynamic.create ~seed (dataset ~seed:(seed + 1) n)

let decode_system bytes =
  match Snapshot.decode bytes with
  | Ok d -> d
  | Error e -> Alcotest.failf "decode failed: %s" (Codec.error_to_string e)

let err_name = function
  | Codec.Bad_magic -> "bad_magic"
  | Codec.Bad_version _ -> "bad_version"
  | Codec.Truncated -> "truncated"
  | Codec.Bad_checksum -> "bad_checksum"
  | Codec.Corrupt _ -> "corrupt"
  | Codec.Io _ -> "io"

(* ----- codec container ----- *)

let test_container_roundtrip () =
  let payload = "i 42\nf 0x1.8p+1\ns 5 he\nlo\n" in
  let w = Codec.W.create () in
  Codec.W.int w 42;
  Codec.W.float w 3.0;
  Codec.W.str w "he\nlo";
  let image = Codec.seal w in
  Alcotest.(check string) "the plain container" (Container.wrap payload) image;
  match Codec.decode image with
  | Ok p -> Alcotest.(check string) "payload back" payload p
  | Error e -> Alcotest.failf "container: %s" (Codec.error_to_string e)

let test_container_rejects () =
  let good = Container.wrap "i 1\n" in
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
  check_err "bad header" "corrupt" "BWCSNAP 3\nlen x crc zzzzzzzz\n";
  check_err "previous version" "bad_version" "BWCSNAP 1\nlen 0 crc 00000000\n"

let test_float_roundtrip_exact () =
  let w = Codec.W.create () in
  let values =
    [ 0.; -0.; 1.5; Float.pi; 1e-308; 1.0 /. 3.0; infinity; neg_infinity; 4.25e17 ]
  in
  List.iter (Codec.W.float w) values;
  let r =
    match Codec.decode (Codec.seal w) with
    | Ok payload -> Codec.R.create payload
    | Error e -> Alcotest.failf "container: %s" (Codec.error_to_string e)
  in
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
  ignore (Dynamic.query_centralized sys ~k:3 ~b:30.0 : int list option);
  let bytes = Snapshot.encode (`Dynamic sys) in
  let again = Snapshot.encode (`Dynamic (decode_system bytes)) in
  Alcotest.(check bool) "re-snapshot byte-identical" true (String.equal bytes again)

let test_snapshot_restart_without_reconvergence () =
  let sys = system ~n:32 () in
  let restored = decode_system (Snapshot.encode (`Dynamic sys)) in
  (* quiesced before the crash => nothing left to reconverge *)
  let rounds = Protocol.run_aggregation (Dynamic.protocol restored) in
  Alcotest.(check int) "already at the fixed point" 1 rounds;
  Alcotest.(check int) "no messages resent"
    (Protocol.messages_sent (Dynamic.protocol restored))
    (Protocol.messages_sent (Dynamic.protocol restored));
  (* same submission-RNG state: the restored system serves the same
     queries as the original from here on *)
  for _ = 1 to 10 do
    let a = Dynamic.query sys ~k:4 ~b:25.0 in
    let b = Dynamic.query restored ~k:4 ~b:25.0 in
    Alcotest.(check bool) "same query answers" true (a.Bwc_core.Query.cluster = b.Bwc_core.Query.cluster)
  done

let test_snapshot_future_is_deterministic () =
  (* run original and restored copies forward: byte-identical snapshots
     at every step, because the whole engine state (round clock, RNG
     stream) survived *)
  let sys = system ~seed:11 () in
  let restored = decode_system (Snapshot.encode (`Dynamic sys)) in
  for _ = 1 to 3 do
    ignore (Protocol.run_round (Dynamic.protocol sys) : bool);
    ignore (Protocol.run_round (Dynamic.protocol restored) : bool)
  done;
  Alcotest.(check bool) "futures agree" true
    (String.equal
       (Snapshot.encode (`Dynamic sys))
       (Snapshot.encode (`Dynamic restored)))

let test_snapshot_dynamic_roundtrip () =
  let dyn = Dynamic.create ~seed:5 (dataset ~seed:6 20) in
  let first = List.hd (Dynamic.members dyn) in
  ignore (Dynamic.apply_deferred dyn [ Bwc_sim.Churn.Leave first ] : int);
  ignore (Protocol.run_aggregation (Dynamic.protocol dyn) : int);
  ignore (Dynamic.query_centralized dyn ~k:3 ~b:30.0 : int list option);
  let bytes = Snapshot.encode (`Dynamic dyn) in
  let restored = decode_system bytes in
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
  (* an image taken after a deferred LEAVE or JOIN, before any round,
     must restore: the protocol took the change when it was applied, so
     its slots already match the membership the image records *)
  let dyn =
    Dynamic.create ~seed:1 ~initial_members:(List.init 12 Fun.id) (dataset ~seed:1 16)
  in
  let restores label =
    match Snapshot.decode (Snapshot.encode (`Dynamic dyn)) with
    | Ok d ->
        Alcotest.(check (list int))
          (label ^ ": members") (Dynamic.members dyn) (Dynamic.members d)
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
  let reference = Dynamic.create ~seed:9 ds in
  let sys = Dynamic.create ~seed:9 ~aggregation_rounds:3 ds in
  let restored = decode_system (Snapshot.encode (`Dynamic sys)) in
  let (_ : int) = Protocol.run_aggregation (Dynamic.protocol restored) in
  let p_ref = Dynamic.protocol reference and p_res = Dynamic.protocol restored in
  let n = Bwc_dataset.Dataset.size ds in
  let classes = Dynamic.classes reference in
  for h = 0 to n - 1 do
    for cls = 0 to Bwc_core.Classes.count classes - 1 do
      Alcotest.(check int)
        (Printf.sprintf "max_reachable host %d class %d" h cls)
        (Protocol.max_reachable p_ref h ~cls)
        (Protocol.max_reachable p_res h ~cls)
    done
  done

(* ----- node-info slot table ----- *)

let table_keys image = Array.to_list (Array.map Slot_table.key (Slot_table.read image))

(* the image carries exactly the dump's distinct infos, in first-reference
   order *)
let check_table label image dyn =
  Alcotest.(check (list string))
    (label ^ ": slot table is the dump's distinct infos in first-reference order")
    (Slot_table.first_references (Protocol.dump (Dynamic.protocol dyn)))
    (table_keys image)

(* index queries, and live queries at every member with an explicit [at] *)
let probe dyn =
  let bs = [ 5.0; 15.0; 30.0 ] and ks = [ 2; 3; 5 ] in
  let index =
    List.concat_map (fun k -> List.map (fun b -> Dynamic.query_centralized dyn ~k ~b) bs) ks
  in
  let live =
    List.concat_map
      (fun at ->
        List.concat_map
          (fun k -> List.map (fun b -> (Dynamic.query dyn ~at ~k ~b).Bwc_core.Query.cluster) bs)
          ks)
      (Dynamic.members dyn)
  in
  (Dynamic.members dyn, index, live)

let test_slot_table_after_repair () =
  (* right after [repair] evicts the member with the most overlay
     neighbours, its ex-neighbours' out-entries still carry its info: the
     table holds an info of a host that is no longer a member *)
  let sys = system ~seed:13 ~n:48 () in
  let ens = Dynamic.ensemble sys in
  let degree h = List.length (Ensemble.anchor_neighbors ens h) in
  let victim =
    List.fold_left
      (fun best h -> if degree h > degree best then h else best)
      (List.hd (Dynamic.members sys))
      (Dynamic.members sys)
  in
  Protocol.repair (Dynamic.protocol sys) ~dead:[ victim ];
  Alcotest.(check bool) "victim evicted" false (List.mem victim (Dynamic.members sys));
  let image = Snapshot.encode (`Dynamic sys) in
  let table = Slot_table.read image in
  Alcotest.(check bool) "the table holds the evicted host's info" true
    (Array.exists (fun (i : Bwc_core.Node_info.t) -> i.host = victim) table);
  check_table "after repair" image sys;
  let restored = decode_system image in
  Alcotest.(check bool) "re-encode byte-identical" true
    (String.equal image (Snapshot.encode (`Dynamic restored)));
  let (_ : int) = Protocol.run_aggregation (Dynamic.protocol sys) in
  let (_ : int) = Protocol.run_aggregation (Dynamic.protocol restored) in
  Alcotest.(check bool) "restored answers the probe set as the writer" true
    (probe sys = probe restored)

let test_slot_out_of_range () =
  let sys = system ~n:16 () in
  let image = Snapshot.encode (`Dynamic sys) in
  let slots = Array.length (Slot_table.read image) in
  List.iter
    (fun slot ->
      match Snapshot.decode (Slot_table.with_first_ref image slot) with
      | Ok _ -> Alcotest.failf "slot %d accepted" slot
      | Error (Codec.Corrupt msg) ->
          Alcotest.(check string) (Printf.sprintf "slot %d" slot)
            (Printf.sprintf "node-info slot %d outside [0, %d)" slot slots)
            msg
      | Error e -> Alcotest.failf "slot %d: %s" slot (Codec.error_to_string e))
    [ -1; slots; slots + 7 ];
  (* the last slot passes the range check, and the protocol layer then
     finds the first node holding an aggrNode table its peer never sent *)
  let nd = List.hd (Protocol.dump (Dynamic.protocol sys)).d_nodes in
  let l = List.hd nd.nd_links in
  let seq = match l.l_delivered with Some u -> u.u_seq | None -> Alcotest.fail "no update" in
  match Snapshot.decode (Slot_table.with_first_ref image (slots - 1)) with
  | Error (Codec.Corrupt msg) ->
      Alcotest.(check string) (Printf.sprintf "slot %d" (slots - 1))
        (Printf.sprintf
           "Protocol.of_dump: node %d holds seq %d from %d with another payload than %d sent"
           nd.nd_id seq l.l_peer l.l_peer)
        msg
  | Error e -> Alcotest.failf "slot %d: %s" (slots - 1) (Codec.error_to_string e)
  | Ok _ -> Alcotest.failf "slot %d: an aggrNode table its peer never sent restored" (slots - 1)

let test_restored_reencodes_like_original () =
  (* a restored system holds infos decoded from the table beside infos
     its nodes rebuild from the ensemble, distinct objects with equal
     labels; run forward, it must number its slots as the original does.
     A repair re-sends only around the evicted member, so the restored
     nodes' own infos then travel beside decoded copies of them *)
  let sys = system ~seed:19 ~n:32 () in
  let restored = decode_system (Snapshot.encode (`Dynamic sys)) in
  let step = ref 0 in
  let both f =
    incr step;
    f sys;
    f restored;
    let a = Snapshot.encode (`Dynamic sys) and b = Snapshot.encode (`Dynamic restored) in
    let label = Printf.sprintf "step %d" !step in
    check_table label a sys;
    Alcotest.(check bool) (label ^ ": restored re-encodes as the original") true
      (String.equal a b)
  in
  let round d = ignore (Protocol.run_round (Dynamic.protocol d) : bool) in
  let converge d = ignore (Protocol.run_aggregation (Dynamic.protocol d) : int) in
  let victim = List.nth (Dynamic.members sys) 5 in
  both (fun d ->
      Protocol.repair (Dynamic.protocol d) ~dead:[ victim ];
      round d);
  both round;
  both converge;
  (* a deferred LEAVE runs the same eviction *)
  let leaving = List.nth (Dynamic.members sys) 9 in
  both (fun d ->
      ignore (Dynamic.apply_deferred d [ Bwc_sim.Churn.Leave leaving ] : int);
      round d);
  both converge

(* ----- ghosts ----- *)

let test_ghosts_in_images () =
  (* a LEAVE of a host that other placements anchor on leaves its ghost
     in the trees: the image carries it with no new field, restores it,
     and a rejoin revives it alike on both sides *)
  let sys = system ~seed:23 ~n:32 () in
  let ens = Dynamic.ensemble sys in
  let ghost h =
    Array.exists
      (fun fw -> Bwc_predtree.Tree.mem (Bwc_predtree.Framework.tree fw) h)
      (Ensemble.frameworks ens)
  in
  let degree h = List.length (Ensemble.anchor_neighbors ens h) in
  let leaving =
    List.fold_left
      (fun best h -> if degree h > degree best then h else best)
      (List.hd (Dynamic.members sys)) (Dynamic.members sys)
  in
  let (_ : int) = Dynamic.apply_deferred sys [ Bwc_sim.Churn.Leave leaving ] in
  Alcotest.(check bool) "a tree keeps the leaver's ghost" true (ghost leaving);
  let image = Snapshot.encode (`Dynamic sys) in
  let restored = decode_system image in
  Alcotest.(check bool) "re-encode byte-identical" true
    (String.equal image (Snapshot.encode (`Dynamic restored)));
  List.iter
    (fun d -> ignore (Dynamic.apply_deferred d [ Bwc_sim.Churn.Join leaving ] : int))
    [ sys; restored ];
  Alcotest.(check bool) "the rejoin revives alike" true
    (String.equal (Snapshot.encode (`Dynamic sys)) (Snapshot.encode (`Dynamic restored)))

let test_stray_tree_host_corrupt () =
  (* a tree that names a non-member on no member's label chain has no
     label to read the host's off: the image is refused *)
  let ds = dataset ~seed:24 24 in
  let sys = Dynamic.create ~seed:23 ~initial_members:(List.init 23 Fun.id) ds in
  let tree = Bwc_predtree.Framework.tree (Ensemble.primary (Dynamic.ensemble sys)) in
  let v = Bwc_predtree.Tree.vertex_of_host tree 0 in
  let (_ : int * int * int * float) =
    Bwc_predtree.Tree.add_host tree ~host:23 ~between:(v, v) ~at:0.0 ~leaf_weight:1.0
  in
  match Snapshot.decode (Snapshot.encode (`Dynamic sys)) with
  | Error (Codec.Corrupt msg) ->
      Alcotest.(check string) "reason"
        "Framework.of_dump: tree hosts are not the members and their label chains" msg
  | Error e -> Alcotest.failf "stray host surfaced as %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "a tree naming a stray host restored"

(* ----- format versions ----- *)

(* the payload of a container, whatever its version *)
let payload_of bytes =
  let nl1 = String.index bytes '\n' in
  let nl2 = String.index_from bytes (nl1 + 1) '\n' in
  String.sub bytes (nl2 + 1) (String.length bytes - nl2 - 1)

(* ----- the centralized index ----- *)

let test_index_count_below_two_corrupt () =
  (* a pair's endpoints lie in its own ball, so a stored count below 2
     is corrupt: the image is refused, where a restored undercount would
     go negative under leaves and borrow from the pair's packed
     endpoints *)
  let dyn = system ~n:12 () in
  let (_ : Bwc_core.Find_cluster.Index.t) = Dynamic.index dyn in
  let payload = payload_of (Snapshot.encode (`Dynamic dyn)) in
  (* the index section closes the payload: its tag, the member count and
     the members, the pair count, then the pairs' counts *)
  let tag = "\n# index\n" in
  let rec last i = if String.sub payload i (String.length tag) = tag then i else last (i - 1) in
  let at = last (String.length payload - String.length tag) + 1 in
  let lines = String.split_on_char '\n' (String.sub payload at (String.length payload - at)) in
  let a = int_of_string (String.sub (List.nth lines 1) 2 (String.length (List.nth lines 1) - 2)) in
  let first_count = a + 3 in
  let edited =
    String.concat "\n" (List.mapi (fun i line -> if i = first_count then "i 0" else line) lines)
  in
  (match Snapshot.decode (Container.wrap (String.sub payload 0 at ^ edited)) with
  | Error (Codec.Corrupt msg) ->
      Alcotest.(check string) "reason" "Find_cluster.Index.of_dump: count out of range" msg
  | Error e -> Alcotest.failf "a zero count surfaced as %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "a zero count restored");
  let module Index = Bwc_core.Find_cluster.Index in
  let d = Index.dump (Dynamic.index dyn) in
  let sizes = Array.copy d.Index.d_sizes in
  sizes.(0) <- 1;
  Alcotest.check_raises "a count of 1"
    (Invalid_argument "Find_cluster.Index.of_dump: count out of range") (fun () ->
      let space = Bwc_dataset.Dataset.metric ~c:(Dynamic.c dyn) (Dynamic.dataset dyn) in
      ignore (Index.of_dump space { d with Index.d_sizes = sizes } : Index.t))

let test_version_1_refused () =
  (* an image the version-1 encoder wrote (node infos inline) is refused
     by its version, before its payload is read *)
  let v1 = Codec.read_file "fixtures/snapshot/dynamic-v1.bwcsnap" in
  (match Snapshot.decode v1 with
  | Error (Codec.Bad_version 1) -> ()
  | Error e -> Alcotest.failf "version-1 image: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "version-1 image accepted");
  (* the same payload under the current version does not parse *)
  match Snapshot.decode (Container.wrap (payload_of v1)) with
  | Error (Codec.Corrupt _) -> ()
  | Error e -> Alcotest.failf "relabelled image: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "the version-1 layout decoded as the current version"

let test_version_2_refused () =
  (* an image the version-2 encoder wrote (six per-peer lists a node, a
     detector section) is refused by its version *)
  let v2 = Codec.read_file "fixtures/snapshot/dynamic-v2.bwcsnap" in
  (match Snapshot.decode v2 with
  | Error (Codec.Bad_version 2) -> ()
  | Error e -> Alcotest.failf "version-2 image: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "version-2 image accepted");
  match Snapshot.decode (Container.wrap (payload_of v2)) with
  | Error (Codec.Corrupt _) -> ()
  | Error e -> Alcotest.failf "relabelled image: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "the version-2 layout decoded as the current version"

let test_retired_kind_still_corrupt () =
  (* the retired static kind in a current container is refused by its
     kind *)
  let v1 = Codec.read_file "fixtures/snapshot/system-kind.bwcsnap" in
  match Snapshot.decode (Container.wrap (payload_of v1)) with
  | Error (Codec.Corrupt msg) ->
      Alcotest.(check string) "kind named" "unknown snapshot kind \"system\"" msg
  | Error e -> Alcotest.failf "system kind: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "system kind accepted"

(* ----- what an image does not hold ----- *)

let test_encode_refuses_detector () =
  (* the facade runs no detector: build one through the layers *)
  let dataset = dataset ~seed:8 16 in
  let c = Bwc_metric.Bandwidth.default_c in
  let rng = Rng.create 7 in
  let fw = Ensemble.build ~rng:(Rng.split rng) (Bwc_dataset.Dataset.metric ~c dataset) in
  let classes = Bwc_core.Classes.of_percentiles ~c dataset in
  let p =
    Protocol.create ~rng:(Rng.split rng) ~detector:Detector.default_config ~classes fw
  in
  let sys =
    Dynamic.assemble ~dataset ~c ~fw ~protocol:p ~classes ~rng_state:(Rng.state rng)
      ~index:None ()
  in
  match Snapshot.encode (`Dynamic sys) with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "reason"
        "Snapshot.encode: the protocol runs a failure detector, which images do not hold" msg
  | (_ : string) -> Alcotest.fail "a system with a detector was encoded"

let test_encode_refuses_crashed_member () =
  let sys = system ~n:16 () in
  let victim = List.nth (Dynamic.members sys) 3 in
  Protocol.crash_host (Dynamic.protocol sys) victim;
  match Snapshot.encode (`Dynamic sys) with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "reason"
        (Printf.sprintf "Snapshot.encode: member %d is crashed, which images do not hold" victim)
        msg
  | (_ : string) -> Alcotest.fail "a system with a crashed member was encoded"

(* ----- per-link protocol state ----- *)

(* hp-like n = 20 with n_cut 4, at quiescence *)
let quiescent_protocol () =
  let ds = dataset ~seed:5 20 in
  let classes = Bwc_core.Classes.of_percentiles ~count:5 ds in
  let fw = Ensemble.build ~rng:(Rng.create 6) (Bwc_dataset.Dataset.metric ds) in
  let p = Protocol.create ~rng:(Rng.create 7) ~n_cut:4 ~classes fw in
  let (_ : int) = Protocol.run_aggregation p in
  (ds, classes, fw, p)

let link_dump (d : Protocol.dump) x m =
  let nd = List.find (fun (nd : Protocol.node_dump) -> nd.nd_id = x) d.d_nodes in
  List.find (fun (l : Protocol.link_dump) -> l.l_peer = m) nd.nd_links

(* Node 0 applied 18's update 2.  An image in which 18's out entry for
   it, under the same epoch and seq, carries another aggrCRT column and
   is due for a resend would have the restored 0 take the resent copy
   for a duplicate of a payload it does not hold. *)
let test_link_payload_disagrees () =
  let ds, classes, fw, p = quiescent_protocol () in
  let d = Protocol.dump p in
  let delivered = link_dump d 0 18 and out = link_dump d 18 0 in
  (match (delivered.l_delivered, out.l_out) with
  | Some u, Some o ->
      Alcotest.(check int) "0 applied 18's update 2" 2 u.u_seq;
      Alcotest.(check int) "18 sent it as seq 2" 2 o.o_seq;
      Alcotest.(check int) "under the link's epoch"
        (Option.value ~default:0 delivered.l_epoch) o.o_epoch
  | _ -> Alcotest.fail "link 18->0 holds no update");
  let c = Bwc_metric.Bandwidth.default_c in
  let sys =
    Dynamic.assemble ~dataset:ds ~c ~fw ~protocol:p ~classes ~rng_state:0L ~index:None ()
  in
  let image = Snapshot.encode (`Dynamic sys) in
  let (_ : Dynamic.t) = decode_system image in
  let edited =
    Slot_table.with_unacked_out image ~node:18 ~peer:0 ~sent_round:(d.d_engine_round - 3)
  in
  match Snapshot.decode edited with
  | Error (Codec.Corrupt msg) ->
      Alcotest.(check string) "reason"
        "Protocol.of_dump: node 0 holds seq 2 from 18 with another payload than 18 sent" msg
  | Error e -> Alcotest.failf "surfaced as %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "an out entry disagreeing with its delivered copy restored"

(* a node's links must be its overlay neighbours in the ensemble's order *)
let test_links_not_neighbours edit () =
  let _, classes, fw, p = quiescent_protocol () in
  let d = Protocol.dump p in
  let x =
    (List.find (fun (nd : Protocol.node_dump) -> List.length nd.nd_links >= 2) d.d_nodes).nd_id
  in
  let stranger =
    List.find
      (fun h -> h <> x && not (List.mem h (Ensemble.anchor_neighbors fw x)))
      (Ensemble.members fw)
  in
  let edit_x (nd : Protocol.node_dump) =
    if nd.nd_id = x then { nd with nd_links = edit ~stranger nd.nd_links } else nd
  in
  match Protocol.of_dump ~classes fw { d with d_nodes = List.map edit_x d.d_nodes } with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "reason"
        (Printf.sprintf
           "Protocol.of_dump: node %d's links are not its overlay neighbours in order" x)
        msg
  | (_ : Protocol.t) -> Alcotest.fail "links that are not the overlay neighbours restored"

let link_dropped ~stranger:_ links = List.tl links

let link_extra ~stranger links = { (List.hd links) with Protocol.l_peer = stranger } :: links

let links_swapped ~stranger:_ = function
  | a :: b :: rest -> b :: a :: rest
  | links -> links

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
  let bytes = Snapshot.encode (`Dynamic sys) in
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
  let bytes = Snapshot.encode ~metrics ~trace (`Dynamic sys) in
  let mangled = Fault.corrupt_snapshot ~rng:(Rng.create 1) Fault.Stale_version bytes in
  let cold_calls = ref 0 in
  let cold () =
    incr cold_calls;
    system ()
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
  let q = Dynamic.query restored ~k:3 ~b:25.0 in
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
      Codec.write_file path (Snapshot.encode (`Dynamic sys));
      let restored = match Snapshot.load path with
        | Ok r -> r
        | Error e -> Alcotest.failf "load: %s" (Codec.error_to_string e)
      in
      Alcotest.(check bool) "identical bytes after reload" true
        (String.equal (Snapshot.encode (`Dynamic sys))
           (Snapshot.encode (`Dynamic restored))))

let test_write_into_a_pipe () =
  (* a path that is not a regular file is written in place: the bytes
     reach the pipe's reader, and the pipe stays a pipe *)
  let dir = Filename.temp_dir "bwcpipe" "" in
  let path = Filename.concat dir "out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; path ^ ".tmp" ];
      Sys.rmdir dir)
    (fun () ->
      Unix.mkfifo path 0o600;
      let reader = Unix.openfile path [ Unix.O_RDONLY; Unix.O_NONBLOCK ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close reader)
        (fun () ->
          Codec.write_file path "through the pipe\n";
          let buf = Bytes.create 64 in
          let got = Unix.read reader buf 0 64 in
          Alcotest.(check string) "bytes read" "through the pipe\n" (Bytes.sub_string buf 0 got);
          Alcotest.(check bool) "still a pipe" true
            ((Unix.lstat path).Unix.st_kind = Unix.S_FIFO);
          Alcotest.(check bool) "no temp file" false (Sys.file_exists (path ^ ".tmp"))))

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
      let good = Snapshot.encode (`Dynamic sys) in
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
          (fun seed -> Snapshot.encode (`Dynamic (system ~seed ())))
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
      | Some (r, 0), [] ->
          Alcotest.(check bool) "newest wins when intact" true
            (String.equal (List.nth images 2) (Snapshot.encode (`Dynamic r)))
      | Some (_, g), _ -> Alcotest.failf "wrong generation %d" g
      | None, _ -> Alcotest.fail "load_any failed on intact chain");
      (* corrupt the two newest generations with different modes: the
         restore must walk past both and land on generation 2 *)
      let rng = Rng.create 17 in
      Codec.write_file path
        (Fault.corrupt_snapshot ~rng (Fault.Flip_bits 11) (Codec.read_file path));
      let g1 = Snapshot.gen_path path 1 in
      Codec.write_file g1
        (Fault.corrupt_snapshot ~rng Fault.Stale_version (Codec.read_file g1));
      (match Snapshot.load_any ~metrics ~keep:3 path with
      | Some (r, 2), rejected ->
          Alcotest.(check bool) "oldest generation restores" true
            (String.equal (List.nth images 0) (Snapshot.encode (`Dynamic r)));
          Alcotest.(check (list int)) "skipped generations reported" [ 0; 1 ]
            (List.map fst rejected)
      | Some (_, g), _ -> Alcotest.failf "restored wrong generation %d" g
      | None, _ -> Alcotest.fail "fallback generation not restored");
      Alcotest.(check int) "fallback counted" 1
        (Registry.get (Registry.snapshot metrics) "persist.generation_fallbacks");
      (* corrupt the last one too: every generation reports a typed error *)
      let g2 = Snapshot.gen_path path 2 in
      Codec.write_file g2
        (Fault.corrupt_snapshot ~rng (Fault.Truncate 30) (Codec.read_file g2));
      match Snapshot.load_any ~keep:3 path with
      | Some _, _ -> Alcotest.fail "restored from a fully corrupt chain"
      | None, rejected ->
          Alcotest.(check (list int)) "every generation reported" [ 0; 1; 2 ]
            (List.map fst rejected))

(* A failed write is reported, never raised and never half done: with a
   directory where the temp file would go, rotate's write fails before
   any generation moves. *)
let test_rotate_reports_failed_write () =
  with_rotation_chain (fun path ->
      let images =
        List.map (fun seed -> Snapshot.encode (`Dynamic (system ~seed ()))) [ 71; 72; 73 ]
      in
      List.iter
        (fun img ->
          match Snapshot.rotate ~keep:3 ~path img with
          | Ok () -> ()
          | Error e -> Alcotest.failf "rotate: %s" (Codec.error_to_string e))
        images;
      let chain () = List.map (fun g -> Codec.read_file (Snapshot.gen_path path g)) [ 0; 1; 2 ] in
      let before = chain () in
      let tmp = path ^ ".tmp" in
      Sys.mkdir tmp 0o755;
      Fun.protect
        ~finally:(fun () -> Sys.rmdir tmp)
        (fun () ->
          match Snapshot.rotate ~keep:3 ~path (Snapshot.encode (`Dynamic (system ~seed:74 ()))) with
          | Error (Codec.Io _) ->
              Alcotest.(check (list string)) "every generation byte-identical" before (chain ());
              Alcotest.(check bool) "the directory is left alone" true (Sys.is_directory tmp)
          | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)
          | Ok () -> Alcotest.fail "rotate reported a failed write as written"))

let test_snapshot_into_missing_directory () =
  let dir = Filename.temp_file "bwcsnap_gone" "" in
  Sys.remove dir;
  let path = Filename.concat dir "x.bwcsnap" in
  match Bwc_daemon.Lifecycle.snapshot ~path (system ()) with
  | Error (Codec.Io _) -> Alcotest.(check bool) "nothing created" false (Sys.file_exists dir)
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "a snapshot into a missing directory reported written"

(* ----- fault plan validation ----- *)

let test_fault_schedule_validation () =
  (* corrupt_snapshot's stale header is the one the codec rejects *)
  let mangled = Fault.corrupt_snapshot ~rng:(Rng.create 1) Fault.Stale_version (Container.wrap "i 1\n") in
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
          Alcotest.test_case "encode refuses a detector" `Quick test_encode_refuses_detector;
          Alcotest.test_case "encode refuses a crashed member" `Quick
            test_encode_refuses_crashed_member;
          Alcotest.test_case "save/load file" `Quick test_save_load_file;
          Alcotest.test_case "write into a pipe" `Quick test_write_into_a_pipe;
          Alcotest.test_case "rotate refuses garbage" `Quick
            test_rotate_never_displaces_valid_image;
          Alcotest.test_case "rotate fallback chain" `Quick
            test_rotate_fallback_across_generations;
          Alcotest.test_case "rotate reports a failed write" `Quick
            test_rotate_reports_failed_write;
          Alcotest.test_case "snapshot into a missing directory" `Quick
            test_snapshot_into_missing_directory;
        ] );
      ( "slot_table",
        [
          Alcotest.test_case "after repair" `Quick test_slot_table_after_repair;
          Alcotest.test_case "slot out of range" `Quick test_slot_out_of_range;
          Alcotest.test_case "restored re-encodes like the original" `Quick
            test_restored_reencodes_like_original;
        ] );
      ( "ghosts",
        [
          Alcotest.test_case "ghosts in images" `Quick test_ghosts_in_images;
          Alcotest.test_case "stray tree host is corrupt" `Quick test_stray_tree_host_corrupt;
        ] );
      ( "versions",
        [
          Alcotest.test_case "version 1 refused" `Quick test_version_1_refused;
          Alcotest.test_case "version 2 refused" `Quick test_version_2_refused;
          Alcotest.test_case "retired kind still corrupt" `Quick
            test_retired_kind_still_corrupt;
        ] );
      ( "index",
        [
          Alcotest.test_case "a count below 2 is corrupt" `Quick
            test_index_count_below_two_corrupt;
        ] );
      ( "links",
        [
          Alcotest.test_case "payload disagrees with the sender" `Quick
            test_link_payload_disagrees;
          Alcotest.test_case "one link dropped" `Quick (test_links_not_neighbours link_dropped);
          Alcotest.test_case "one link extra" `Quick (test_links_not_neighbours link_extra);
          Alcotest.test_case "two links swapped" `Quick (test_links_not_neighbours links_swapped);
        ] );
      ( "degradation",
        [
          Alcotest.test_case "corruption never panics" `Quick test_corruption_never_panics;
          Alcotest.test_case "cold fallback" `Quick test_restore_or_cold_falls_back;
          Alcotest.test_case "schedule validation" `Quick test_fault_schedule_validation;
        ] );
    ]
