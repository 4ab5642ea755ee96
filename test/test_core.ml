(* Tests for bwc_core: Algorithm 1 and its theorems (3.1), the
   precomputed index, bandwidth classes, the decentralized protocol
   (Theorems 3.2 and 3.3 checked against ground truth computed from the
   anchor topology), query routing (Algorithm 4), node search, and the
   system facade. *)

module Rng = Bwc_stats.Rng
module Space = Bwc_metric.Space
module Find_cluster = Bwc_core.Find_cluster
module Classes = Bwc_core.Classes
module Node_info = Bwc_core.Node_info
module Protocol = Bwc_core.Protocol
module Dynamic = Bwc_core.Dynamic
module Query = Bwc_core.Query
module Ensemble = Bwc_predtree.Ensemble
module Anchor = Bwc_predtree.Anchor

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs a)
let index_members idx = (Find_cluster.Index.dump idx).Find_cluster.Index.d_members

let tree_space ~seed n =
  Space.of_dmatrix (Bwc_dataset.Hier_tree.distance_matrix ~rng:(Rng.create seed) ~n ())

let small_dataset ~seed n =
  Bwc_dataset.Planetlab.generate ~rng:(Rng.create seed) ~name:"test-ds"
    { Bwc_dataset.Planetlab.hp_target with n }

(* brute force: does a k-subset with diameter <= l exist in the space? *)
let brute_exists space k l =
  let n = space.Space.n in
  let rec choose start acc count =
    if count = k then begin
      let ok = ref true in
      List.iteri
        (fun i x ->
          List.iteri (fun j y -> if j > i && Space.dist space x y > l then ok := false) acc)
        acc;
      !ok
    end
    else if start >= n then false
    else choose (start + 1) (start :: acc) (count + 1) || choose (start + 1) acc count
  in
  choose 0 [] 0

(* ----- Algorithm 1 ----- *)

let test_members_definition () =
  let space = tree_space ~seed:1 12 in
  for p = 0 to 11 do
    for q = p + 1 to 11 do
      let dpq = Space.dist space p q in
      let s = Find_cluster.members space ~p ~q in
      Alcotest.(check bool) "p in S" true (List.mem p s);
      Alcotest.(check bool) "q in S" true (List.mem q s);
      for x = 0 to 11 do
        let belongs = Space.dist space x p <= dpq && Space.dist space x q <= dpq in
        if belongs <> List.mem x s then Alcotest.failf "membership wrong for %d" x
      done
    done
  done

let test_theorem_3_1_diameter () =
  (* in a tree metric, diam S*_pq = d(p,q) *)
  let space = tree_space ~seed:2 15 in
  for p = 0 to 14 do
    for q = p + 1 to 14 do
      let s = Find_cluster.members space ~p ~q in
      let diam = Space.diameter space s in
      if not (feq ~eps:1e-6 diam (Space.dist space p q)) then
        Alcotest.failf "diam %g <> d(p,q) %g" diam (Space.dist space p q)
    done
  done

let test_find_returns_valid_cluster () =
  let space = tree_space ~seed:3 20 in
  let l = Bwc_stats.Summary.median (Bwc_metric.Dmatrix.off_diagonal_values (Space.to_dmatrix space)) in
  match Find_cluster.find space ~k:5 ~l with
  | None -> Alcotest.fail "median-l query should be feasible"
  | Some cluster ->
      Alcotest.(check int) "size" 5 (List.length cluster);
      Alcotest.(check bool) "diameter" true (Space.diameter space cluster <= l *. (1.0 +. 1e-9));
      let sorted = List.sort_uniq compare cluster in
      Alcotest.(check int) "distinct" 5 (List.length sorted)

let test_find_vs_brute_force () =
  for seed = 10 to 25 do
    let n = 8 in
    let space = tree_space ~seed n in
    let values = Bwc_metric.Dmatrix.off_diagonal_values (Space.to_dmatrix space) in
    List.iter
      (fun pct ->
        let l = Bwc_stats.Summary.percentile values pct in
        List.iter
          (fun k ->
            let found = Find_cluster.find space ~k ~l <> None in
            let expected = brute_exists space k l in
            if found <> expected then
              Alcotest.failf "seed=%d k=%d pct=%.0f: alg1 %b brute %b" seed k pct found
                expected)
          [ 2; 3; 4; 6 ])
      [ 20.0; 50.0; 80.0 ]
  done

let test_max_size_vs_brute_force () =
  for seed = 30 to 38 do
    let space = tree_space ~seed 7 in
    let values = Bwc_metric.Dmatrix.off_diagonal_values (Space.to_dmatrix space) in
    let l = Bwc_stats.Summary.percentile values 50.0 in
    let rec largest k = if k < 2 then 1 else if brute_exists space k l then k else largest (k - 1) in
    Alcotest.(check (array int)) "max size" [| largest 7 |]
      (Find_cluster.max_sizes space ~ls:[| l |])
  done

let test_find_infeasible () =
  let space = tree_space ~seed:4 10 in
  Alcotest.(check bool) "tiny l fails for k=3" true
    (Find_cluster.find space ~k:3 ~l:1e-12 = None);
  Alcotest.(check bool) "k > n fails" true (Find_cluster.find space ~k:11 ~l:1e12 = None)

let test_index_consistency () =
  let space = tree_space ~seed:5 18 in
  let index = Find_cluster.Index.build space in
  let values = Bwc_metric.Dmatrix.off_diagonal_values (Space.to_dmatrix space) in
  List.iter
    (fun pct ->
      let l = Bwc_stats.Summary.percentile values pct in
      List.iter
        (fun k ->
          let direct = Find_cluster.find space ~k ~l in
          let indexed = Find_cluster.Index.find index ~k ~l in
          Alcotest.(check bool) "feasibility agrees" (direct <> None) (indexed <> None);
          Alcotest.(check bool) "exists agrees" (direct <> None)
            (Find_cluster.Index.exists index ~k ~l);
          (* identical scan order must give identical clusters *)
          Alcotest.(check (option (list int))) "same cluster" direct indexed)
        [ 2; 4; 7 ];
      Alcotest.(check (array int)) "max size agrees"
        (Find_cluster.max_sizes space ~ls:[| l |])
        [| Find_cluster.Index.max_size index ~l |])
    [ 10.0; 40.0; 70.0; 95.0 ]

(* the index's answer for every class of [ls] *)
let index_max_sizes idx ls = Array.map (fun l -> Find_cluster.Index.max_size idx ~l) ls

let test_index_max_sizes_vector () =
  let space = tree_space ~seed:6 14 in
  let index = Find_cluster.Index.build space in
  let ls = [| 1.0; 50.0; 500.0; 5000.0 |] in
  let sizes = Find_cluster.max_sizes space ~ls in
  Array.iteri
    (fun i l -> Alcotest.(check int) "entry" (Find_cluster.Index.max_size index ~l) sizes.(i))
    ls;
  Alcotest.(check (array int)) "empty space" [| 0; 0; 0; 0 |]
    (Find_cluster.max_sizes (Space.restrict space [||]) ~ls);
  (* max size is monotone in l *)
  for i = 1 to Array.length sizes - 1 do
    if sizes.(i) < sizes.(i - 1) then Alcotest.fail "max size must grow with l"
  done

let test_index_incremental_grow_shrink () =
  (* grow one host at a time from empty to full, then shrink back: every
     intermediate incremental index must be indistinguishable from a
     fresh build over the same membership *)
  let n = 14 in
  let space = tree_space ~seed:7 n in
  let values = Bwc_metric.Dmatrix.off_diagonal_values (Space.to_dmatrix space) in
  let probes =
    List.map (fun pct -> Bwc_stats.Summary.percentile values pct) [ 15.0; 50.0; 85.0 ]
  in
  let agree idx members =
    let fresh = Find_cluster.Index.build_subset space members in
    Alcotest.(check (list int)) "members" (index_members fresh)
      (index_members idx);
    List.iter
      (fun l ->
        Alcotest.(check int) "max_size" (Find_cluster.Index.max_size fresh ~l)
          (Find_cluster.Index.max_size idx ~l);
        List.iter
          (fun k ->
            Alcotest.(check (option (list int))) "find"
              (Find_cluster.Index.find fresh ~k ~l)
              (Find_cluster.Index.find idx ~k ~l))
          [ 2; 3; 5 ])
      probes
  in
  let idx = Find_cluster.Index.build_subset space [] in
  for h = 0 to n - 1 do
    Find_cluster.Index.add_host idx h;
    agree idx (List.init (h + 1) Fun.id)
  done;
  (* full incremental index equals a from-scratch full build *)
  agree idx (List.init n Fun.id);
  for h = n - 1 downto 1 do
    Find_cluster.Index.remove_host idx h;
    agree idx (List.init h Fun.id)
  done;
  Alcotest.(check int) "one member left" 1 (Find_cluster.Index.size idx)

let test_index_delta_contract () =
  let space = tree_space ~seed:8 10 in
  let idx = Find_cluster.Index.build_subset space [ 0; 2; 4 ] in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "double add rejected" true
    (raises (fun () -> Find_cluster.Index.add_host idx 2));
  Alcotest.(check bool) "non-member remove rejected" true
    (raises (fun () -> Find_cluster.Index.remove_host idx 3));
  Alcotest.(check bool) "out-of-range add rejected" true
    (raises (fun () -> Find_cluster.Index.add_host idx 10));
  (* leave then re-join lands back on the identical index state *)
  let before = index_max_sizes idx [| 1.0; 100.0; 1e4 |] in
  Find_cluster.Index.remove_host idx 2;
  Find_cluster.Index.add_host idx 2;
  Alcotest.(check (list int)) "members restored" [ 0; 2; 4 ]
    (index_members idx);
  Alcotest.(check (array int)) "answers restored" before
    (index_max_sizes idx [| 1.0; 100.0; 1e4 |])

(* ----- Classes ----- *)

let test_classes_mapping () =
  let classes = Classes.make ~c:1000.0 [ 10.0; 20.0; 40.0; 80.0 ] in
  Alcotest.(check int) "count" 4 (Classes.count classes);
  (* cheapest class guaranteeing b *)
  Alcotest.(check (option int)) "b=15 -> 20" (Some 1) (Classes.class_for classes ~b:15.0);
  Alcotest.(check (option int)) "b=10 -> 10" (Some 0) (Classes.class_for classes ~b:10.0);
  Alcotest.(check (option int)) "b=80 -> 80" (Some 3) (Classes.class_for classes ~b:80.0);
  Alcotest.(check (option int)) "b beyond classes" None (Classes.class_for classes ~b:81.0);
  (* distances are index-aligned inverses *)
  Alcotest.(check (float 1e-9)) "distance" 50.0 (Classes.distance classes 1)

let test_classes_guarantee () =
  (* the mapped class always guarantees the requested bandwidth *)
  let classes = Classes.make ~c:1000.0 [ 12.0; 33.0; 57.0; 91.0 ] in
  let rng = Rng.create 7 in
  for _ = 1 to 500 do
    let b = Rng.uniform rng 1.0 91.0 in
    match Classes.class_for classes ~b with
    | None -> Alcotest.fail "b within range must map"
    | Some i ->
        Alcotest.(check bool) "guarantee" true ((Classes.bandwidths classes).(i) >= b)
  done

let test_classes_of_percentiles () =
  let ds = small_dataset ~seed:8 40 in
  let classes = Classes.of_percentiles ~count:6 ds in
  Alcotest.(check bool) "at most 6 (dedup)" true (Classes.count classes <= 6);
  let bws = Classes.bandwidths classes in
  for i = 1 to Array.length bws - 1 do
    if bws.(i) <= bws.(i - 1) then Alcotest.fail "ascending"
  done

(* ----- Protocol: aggregation correctness (Theorems 3.2 / 3.3) ----- *)

let protocol_classes ds = Classes.of_percentiles ~count:5 ds

(* a link's aggrNode table (Algorithm 2's), empty until an update arrived *)
let aggr_node (l : Protocol.link_dump) =
  match l.l_delivered with Some u -> u.u_aggr_node | None -> []

(* x's aggrNode[m] as the durable dump records it *)
let aggregated_nodes protocol x m =
  let nd =
    List.find (fun nd -> nd.Protocol.nd_id = x) (Protocol.dump protocol).Protocol.d_nodes
  in
  match List.find_opt (fun (l : Protocol.link_dump) -> l.l_peer = m) nd.Protocol.nd_links with
  | Some l -> aggr_node l
  | None -> []

let epoch p = (Protocol.dump p).Protocol.d_epoch

(* one series of a registry (a counter, a gauge), read through a snapshot *)
let reading metrics name = Bwc_obs.Registry.get (Bwc_obs.Registry.snapshot metrics) name

(* the aggregation payload bound every [build_protocol] system runs with *)
let n_cut = 4

let build_protocol ?ensemble_size ~seed n =
  let ds = small_dataset ~seed n in
  let space = Bwc_dataset.Dataset.metric ds in
  let ens = Ensemble.build ~rng:(Rng.create (seed + 1)) ?size:ensemble_size space in
  let protocol =
    Protocol.create ~rng:(Rng.create (seed + 2)) ~n_cut
      ~classes:(protocol_classes ds) ens
  in
  let (_ : int) = Protocol.run_aggregation protocol in
  (ds, ens, protocol)

(* hosts reachable from x via neighbor m on the anchor tree *)
let reachable_via anchor ~x ~m =
  let rec collect h blocked acc =
    List.fold_left
      (fun acc nb -> if nb = blocked || List.mem nb acc then acc else collect nb h acc)
      (h :: acc) (Anchor.neighbors anchor h)
  in
  List.filter (fun h -> h <> x) (collect m x [])

let test_theorem_3_2_aggr_node () =
  (* Theorem 3.2 is stated for a single prediction tree: with an ensemble
     the ranking distance (median over trees) is not additive along the
     tree, so exact top-n_cut optimality only holds at ensemble size 1. *)
  let _, ens, protocol = build_protocol ~ensemble_size:1 ~seed:9 28 in
  let anchor_tree = Bwc_predtree.Framework.anchor (Ensemble.primary ens) in
  for x = 0 to 27 do
    List.iter
      (fun m ->
        let got = aggregated_nodes protocol x m in
        let u = reachable_via anchor_tree ~x ~m in
        let labels_x = Ensemble.labels ens x in
        let dist_to_x h = Ensemble.label_dist labels_x (Ensemble.labels ens h) in
        (* size: exactly min n_cut |U| *)
        Alcotest.(check int)
          (Printf.sprintf "size of aggrNode[%d->%d]" x m)
          (Stdlib.min n_cut (List.length u))
          (List.length got);
        (* membership and top-n_cut optimality *)
        let got_hosts = List.map (fun i -> i.Node_info.host) got in
        List.iter
          (fun h ->
            if not (List.mem h u) then Alcotest.failf "host %d not reachable via %d" h m)
          got_hosts;
        let worst_kept =
          List.fold_left (fun acc h -> Float.max acc (dist_to_x h)) 0.0 got_hosts
        in
        List.iter
          (fun h ->
            if not (List.mem h got_hosts) && dist_to_x h +. 1e-9 < worst_kept then
              Alcotest.failf
                "host %d (d=%.3f) beats kept worst (%.3f) in aggrNode[%d->%d]" h
                (dist_to_x h) worst_kept x m)
          u)
      (Ensemble.anchor_neighbors ens x)
  done

let test_theorem_3_2_weak_for_ensembles () =
  (* with the median ensemble the aggregated sets must still be correct
     subsets of the reachable hosts with the right cardinality *)
  let _, ens, protocol = build_protocol ~seed:9 22 in
  let anchor_tree = Bwc_predtree.Framework.anchor (Ensemble.primary ens) in
  for x = 0 to 21 do
    List.iter
      (fun m ->
        let got = aggregated_nodes protocol x m in
        let u = reachable_via anchor_tree ~x ~m in
        Alcotest.(check int) "cardinality" (Stdlib.min n_cut (List.length u))
          (List.length got);
        List.iter
          (fun info ->
            if not (List.mem info.Node_info.host u) then
              Alcotest.failf "host %d not reachable via %d" info.Node_info.host m)
          got)
      (Ensemble.anchor_neighbors ens x)
  done

let test_payload_bounded_by_ncut () =
  (* the n_cut knob really bounds what travels in every aggregation
     message, for every node and neighbor *)
  let _, ens, protocol = build_protocol ~seed:35 30 in
  for x = 0 to 29 do
    List.iter
      (fun m ->
        let got = aggregated_nodes protocol x m in
        if List.length got > n_cut then
          Alcotest.failf "aggrNode[%d->%d] exceeds n_cut" x m)
      (Ensemble.anchor_neighbors ens x)
  done

let test_theorem_3_3_aggr_crt () =
  let ds, ens, protocol = build_protocol ~seed:10 24 in
  let anchor_tree = Bwc_predtree.Framework.anchor (Ensemble.primary ens) in
  let classes = protocol_classes ds in
  for x = 0 to 23 do
    List.iter
      (fun m ->
        let got = Protocol.crt_row protocol x m in
        let u = reachable_via anchor_tree ~x ~m in
        (* ground truth: max over reachable hosts' own rows *)
        for cls = 0 to Classes.count classes - 1 do
          let expected =
            List.fold_left
              (fun acc w -> Stdlib.max acc (Protocol.crt_row protocol w w).(cls))
              0 u
          in
          if got.(cls) <> expected then
            Alcotest.failf "aggrCRT[%d->%d][%d] = %d, ground truth %d" x m cls got.(cls)
              expected
        done)
      (Ensemble.anchor_neighbors ens x)
  done

let test_global_max_agrees_everywhere () =
  (* the CRT aggregation propagates the max cluster size across the whole
     anchor tree, so after convergence every host believes the same
     global maximum per class *)
  let ds, _, protocol = build_protocol ~seed:31 26 in
  let classes = protocol_classes ds in
  for cls = 0 to Classes.count classes - 1 do
    let values =
      List.init 26 (fun x -> Protocol.max_reachable protocol x ~cls)
    in
    match values with
    | first :: rest ->
        List.iteri
          (fun i v ->
            if v <> first then
              Alcotest.failf "host %d sees %d for class %d, host 0 sees %d" (i + 1) v cls
                first)
          rest
    | [] -> Alcotest.fail "no hosts"
  done

let test_convergence_rounds_bounded () =
  (* information must cross the anchor tree once in each direction, so
     quiescence arrives within ~2x the tree depth (plus slack for the
     initial flush) *)
  let ds = small_dataset ~seed:32 30 in
  let space = Bwc_dataset.Dataset.metric ds in
  let ens = Ensemble.build ~rng:(Rng.create 33) space in
  let classes = Classes.of_percentiles ~count:5 ds in
  let protocol = Protocol.create ~rng:(Rng.create 34) ~n_cut:4 ~classes ens in
  let rounds = Protocol.run_aggregation protocol in
  let depth = Anchor.max_depth (Bwc_predtree.Framework.anchor (Ensemble.primary ens)) in
  if rounds > (2 * depth) + 4 then
    Alcotest.failf "converged in %d rounds, depth only %d" rounds depth

let test_delays_reach_same_fixpoint () =
  (* heterogeneous FIFO link delays slow convergence but must not change
     what the aggregation converges to *)
  let ds = small_dataset ~seed:36 22 in
  let space = Bwc_dataset.Dataset.metric ds in
  let classes = Classes.of_percentiles ~count:5 ds in
  let make ?edge_delay () =
    let ens = Ensemble.build ~rng:(Rng.create 37) space in
    let p = Protocol.create ~rng:(Rng.create 38) ~n_cut:4 ?edge_delay ~classes ens in
    let (_ : int) = Protocol.run_aggregation ~max_rounds:400 p in
    (ens, p)
  in
  let ens, fast = make () in
  let delay_rng = Rng.create 39 in
  let delays = Hashtbl.create 64 in
  let edge_delay ~src ~dst =
    match Hashtbl.find_opt delays (src, dst) with
    | Some d -> d
    | None ->
        let d = 1 + Rng.int delay_rng 4 in
        Hashtbl.add delays (src, dst) d;
        d
  in
  let _, slow = make ~edge_delay () in
  for x = 0 to 21 do
    (* own rows agree *)
    Alcotest.(check (array int))
      (Printf.sprintf "own row of %d" x)
      (Protocol.crt_row fast x x) (Protocol.crt_row slow x x);
    (* neighbor columns agree *)
    List.iter
      (fun m ->
        Alcotest.(check (array int))
          (Printf.sprintf "column %d->%d" x m)
          (Protocol.crt_row fast x m) (Protocol.crt_row slow x m))
      (Ensemble.anchor_neighbors ens x)
  done

let test_aggregation_quiescence () =
  let _, _, protocol = build_protocol ~seed:11 20 in
  (* a further round on a static network must be a no-op *)
  Alcotest.(check bool) "quiescent" false (Protocol.run_round protocol)

(* ----- Robustness: faults must not change the fixed point ----- *)

let check_same_fixpoint ~n ens clean faulty =
  for x = 0 to n - 1 do
    Alcotest.(check (array int))
      (Printf.sprintf "own row of %d" x)
      (Protocol.crt_row clean x x) (Protocol.crt_row faulty x x);
    List.iter
      (fun m ->
        Alcotest.(check (array int))
          (Printf.sprintf "column %d->%d" x m)
          (Protocol.crt_row clean x m) (Protocol.crt_row faulty x m))
      (Ensemble.anchor_neighbors ens x)
  done

(* a partition cutting every link between [group] and the rest *)
let cut_off group ~src ~dst = List.mem src group <> List.mem dst group

let test_faults_reach_same_fixpoint () =
  (* message loss, duplication and reordering jitter slow convergence but
     must not change what the aggregation converges to (the acceptance
     property of the reliable-delivery layer) *)
  let ds = small_dataset ~seed:70 20 in
  let space = Bwc_dataset.Dataset.metric ds in
  let classes = Classes.of_percentiles ~count:5 ds in
  let make ?faults () =
    let ens = Ensemble.build ~rng:(Rng.create 71) space in
    let p = Protocol.create ~rng:(Rng.create 72) ~n_cut:4 ?faults ~classes ens in
    let rounds = Protocol.run_aggregation ~max_rounds:600 p in
    (ens, p, rounds)
  in
  let ens, clean, clean_rounds = make () in
  let fault_metrics = Bwc_obs.Registry.create () in
  let faults =
    Bwc_sim.Fault.create ~drop:0.2 ~duplicate:0.1 ~jitter:2 ~metrics:fault_metrics
      ~rng:(Rng.create 73) ()
  in
  let _, faulty, faulty_rounds = make ~faults () in
  Alcotest.(check bool) "converged under faults" true (faulty_rounds < 600);
  (* overhead is bounded: retransmission paces recovery at resend_timeout
     rounds per lost hop, nowhere near the cap *)
  Alcotest.(check bool)
    (Printf.sprintf "round overhead bounded (%d clean, %d faulty)" clean_rounds
       faulty_rounds)
    true
    (faulty_rounds <= (8 * clean_rounds) + 40);
  check_same_fixpoint ~n:20 ens clean faulty;
  Alcotest.(check bool) "losses were injected" true
    (reading fault_metrics "fault.lost" > 0);
  Alcotest.(check bool) "duplicates were injected" true
    (reading fault_metrics "fault.duplicated" > 0);
  Alcotest.(check bool) "retransmissions happened" true
    (reading (Protocol.metrics faulty) "protocol.retransmissions" > 0);
  Alcotest.(check bool) "duplicates suppressed" true
    (reading (Protocol.metrics faulty) "protocol.dup_suppressed" > 0);
  Alcotest.(check int) "nothing pending at quiescence" 0
    (reading (Protocol.metrics faulty) "protocol.unacked")

let test_crash_restart_converges () =
  (* hosts that crash mid-aggregation and restart later: retransmission
     repairs the tables and the fixed point is unchanged *)
  let ds = small_dataset ~seed:74 18 in
  let space = Bwc_dataset.Dataset.metric ds in
  let classes = Classes.of_percentiles ~count:5 ds in
  let make ?faults () =
    let ens = Ensemble.build ~rng:(Rng.create 75) space in
    let p = Protocol.create ~rng:(Rng.create 76) ~n_cut:4 ?faults ~classes ens in
    let rounds = Protocol.run_aggregation ~max_rounds:600 p in
    (ens, p, rounds)
  in
  let ens, clean, _ = make () in
  let faults =
    Bwc_sim.Fault.create
      ~crashes:
        [
          { Bwc_sim.Fault.node = 5; down_from = 2; up_at = 8 };
          { Bwc_sim.Fault.node = 11; down_from = 4; up_at = 10 };
        ]
      ~rng:(Rng.create 77) ()
  in
  let _, faulty, rounds = make ~faults () in
  Alcotest.(check bool) "converged after restarts" true (rounds < 600);
  check_same_fixpoint ~n:18 ens clean faulty;
  Alcotest.(check int) "nothing pending at quiescence" 0
    (reading (Protocol.metrics faulty) "protocol.unacked")

let test_partition_heals_and_queries_succeed () =
  (* a scripted partition splits the overlay for a window; once it heals,
     retransmission repairs the aggregation and every promised query is
     answered again *)
  let ds = small_dataset ~seed:78 20 in
  let space = Bwc_dataset.Dataset.metric ds in
  let classes = Classes.of_percentiles ~count:5 ds in
  let make ?faults () =
    let ens = Ensemble.build ~rng:(Rng.create 79) space in
    let p = Protocol.create ~rng:(Rng.create 80) ~n_cut:4 ?faults ~classes ens in
    let rounds = Protocol.run_aggregation ~max_rounds:600 p in
    (ens, p, rounds)
  in
  let ens, clean, _ = make () in
  let fault_metrics = Bwc_obs.Registry.create () in
  let faults =
    Bwc_sim.Fault.create
      ~partitions:[ { Bwc_sim.Fault.starts = 2; heals = 9; severs = cut_off [ 3; 7 ] } ]
      ~metrics:fault_metrics
      ~rng:(Rng.create 81) ()
  in
  let _, faulty, rounds = make ~faults () in
  Alcotest.(check bool) "converged after heal" true (rounds < 600);
  Alcotest.(check bool) "partition actually cut traffic" true
    (reading fault_metrics "fault.partition_dropped" > 0);
  check_same_fixpoint ~n:20 ens clean faulty;
  for x = 0 to 19 do
    for cls = 0 to Classes.count classes - 1 do
      let promised = Protocol.max_reachable faulty x ~cls in
      if promised >= 2 then begin
        let r = Protocol.query faulty ~at:x ~k:promised ~cls in
        if not (Query.found r) then
          Alcotest.failf "host %d: promised k=%d missed after heal" x promised
      end
    done
  done

let test_query_skips_dead_hosts () =
  let ds = small_dataset ~seed:83 20 in
  let space = Bwc_dataset.Dataset.metric ds in
  let ens = Ensemble.build ~rng:(Rng.create 84) space in
  let classes = Classes.of_percentiles ~count:5 ds in
  (* crash an anchor-tree leaf permanently *)
  let dead =
    let rec find x =
      if x >= 20 then Alcotest.fail "no leaf found"
      else if List.length (Ensemble.anchor_neighbors ens x) = 1 then x
      else find (x + 1)
    in
    find 1
  in
  let faults =
    Bwc_sim.Fault.create
      ~crashes:[ { Bwc_sim.Fault.node = dead; down_from = 1; up_at = max_int } ]
      ~rng:(Rng.create 85) ()
  in
  let protocol = Protocol.create ~rng:(Rng.create 86) ~n_cut:4 ~faults ~classes ens in
  (* updates to the dead host are never acknowledged; after
     [max_retransmits] tries the neighbor gives up on it, so the system
     reaches quiescence anyway — the retransmission bound in action *)
  let (_ : int) = Protocol.run_aggregation ~max_rounds:60 protocol in
  Alcotest.(check bool) "some update was given up on" true
    (Protocol.give_ups protocol > 0);
  Alcotest.(check int) "given-up updates leave the unacked pool" 0
    (reading (Protocol.metrics protocol) "protocol.unacked");
  for x = 0 to 19 do
    if x <> dead then
      for cls = 0 to Classes.count classes - 1 do
        let r = Protocol.query protocol ~at:x ~k:2 ~cls in
        if List.mem dead r.Query.path then
          Alcotest.failf "query from %d routed through dead host %d" x dead
      done
  done;
  (* a query submitted at the dead host is an immediate miss *)
  let r = Protocol.query protocol ~at:dead ~k:2 ~cls:0 in
  Alcotest.(check bool) "miss at dead host" false (Query.found r);
  Alcotest.(check (list int)) "path is just the dead host" [ dead ] r.Query.path

(* ----- Failure detection and self-healing ----- *)

module Detector = Bwc_core.Detector
module Framework = Bwc_predtree.Framework
module Trace = Bwc_obs.Trace

(* fixed-point equality restricted to current members (the dead host has
   no rows any more) *)
let check_members_fixpoint ens a b =
  List.iter
    (fun x ->
      Alcotest.(check (array int))
        (Printf.sprintf "own row of %d" x)
        (Protocol.crt_row a x x) (Protocol.crt_row b x x);
      List.iter
        (fun m ->
          Alcotest.(check (array int))
            (Printf.sprintf "column %d->%d" x m)
            (Protocol.crt_row a x m) (Protocol.crt_row b x m))
        (Ensemble.anchor_neighbors ens x))
    (Ensemble.members ens)

(* the detector needs rounds of silence before it acts, and the protocol
   looks quiescent in the blind window right after a crash — keep driving
   until [until_repairs] repairs have happened AND the system is quiet *)
let drive_until_healed ?(cap = 300) p ~until_repairs =
  let rec go i =
    if i >= cap then Alcotest.failf "no quiescence within %d rounds" cap
    else begin
      let active = Protocol.run_round p in
      if active || Protocol.repairs_run p < until_repairs then go (i + 1) else i + 1
    end
  in
  go 0

(* a member of the primary anchor overlay that has both a parent and
   children: its death orphans a subtree *)
let find_midtree_victim ens =
  let anchor = Framework.anchor (Ensemble.primary ens) in
  match
    List.find_opt
      (fun h -> Anchor.parent anchor h <> None && Anchor.children anchor h <> [])
      (Ensemble.members ens)
  with
  | Some h -> h
  | None -> Alcotest.fail "no mid-tree host found"

let test_detector_clean_run_quiet () =
  (* on a healthy network the detector must never fire: same fixed point
     as a detector-less run, zero suspicions, and clean quiescence even
     though heartbeats keep flowing *)
  let ds = small_dataset ~seed:87 20 in
  let space = Bwc_dataset.Dataset.metric ds in
  let classes = Classes.of_percentiles ~count:5 ds in
  let make ?detector () =
    let ens = Ensemble.build ~rng:(Rng.create 88) space in
    let p = Protocol.create ~rng:(Rng.create 89) ~n_cut:4 ?detector ~classes ens in
    let rounds = Protocol.run_aggregation ~max_rounds:600 p in
    (ens, p, rounds)
  in
  let ens, plain, _ = make () in
  let _, detected, rounds = make ~detector:Detector.default_config () in
  Alcotest.(check bool) "converged with detector" true (rounds < 600);
  Alcotest.(check bool) "stays quiescent" false (Protocol.run_round detected);
  check_same_fixpoint ~n:20 ens plain detected;
  Alcotest.(check bool) "heartbeats flowed" true (Protocol.heartbeats_sent detected > 0);
  Alcotest.(check int) "no repairs" 0 (Protocol.repairs_run detected);
  Alcotest.(check bool) "detector present" true
    ((Protocol.dump detected).Protocol.d_detector <> None);
  Alcotest.(check int) "nothing given up" 0 (Protocol.give_ups detected)

let test_detector_heals_crash () =
  (* kill a mid-tree node silently: the detector must suspect, confirm,
     evict it and regraft its orphans to the grandparent, and incremental
     re-aggregation must land on the fixed point a fresh protocol
     computes on the repaired overlay *)
  let ds = small_dataset ~seed:90 20 in
  let space = Bwc_dataset.Dataset.metric ds in
  let classes = Classes.of_percentiles ~count:5 ds in
  let ens = Ensemble.build ~rng:(Rng.create 91) space in
  let trace = Trace.create () in
  let p =
    Protocol.create ~rng:(Rng.create 92) ~n_cut:4 ~detector:Detector.default_config
      ~trace ~classes ens
  in
  let (_ : int) = Protocol.run_aggregation ~max_rounds:600 p in
  let victim = find_midtree_victim ens in
  let anchor = Framework.anchor (Ensemble.primary ens) in
  let orphans = List.sort compare (Anchor.children anchor victim) in
  let grandparent =
    match Anchor.parent anchor victim with
    | Some g -> g
    | None -> Alcotest.fail "victim should have a parent"
  in
  Protocol.crash_host p victim;
  let (_ : int) = drive_until_healed p ~until_repairs:1 in
  Alcotest.(check int) "one repair" 1 (Protocol.repairs_run p);
  Alcotest.(check int) "all orphans regrafted"
    (List.length orphans)
    (Protocol.regrafts_applied p);
  Alcotest.(check bool) "victim evicted" false (Ensemble.is_member ens victim);
  List.iter
    (fun c ->
      Alcotest.(check (option int))
        (Printf.sprintf "orphan %d under grandparent" c)
        (Some grandparent) (Anchor.parent anchor c))
    orphans;
  Alcotest.(check int) "repair bumped the epoch" 1 (epoch p);
  (* the healed state is the fixed point, not an approximation: a fresh
     protocol on the already-repaired ensemble must agree everywhere *)
  let fresh = Protocol.create ~rng:(Rng.create 93) ~n_cut:4 ~classes ens in
  let (_ : int) = Protocol.run_aggregation ~max_rounds:600 fresh in
  check_members_fixpoint ens fresh p;
  (* the failure story is visible in the trace *)
  let events = Trace.events trace in
  let has f = List.exists f events in
  Alcotest.(check bool) "crash traced" true
    (has (function Trace.Crash { node; _ } -> node = victim | _ -> false));
  Alcotest.(check bool) "suspicion traced" true
    (has (function Trace.Suspect { node; _ } -> node = victim | _ -> false));
  Alcotest.(check bool) "confirmation traced" true
    (has (function Trace.Confirm_dead { node; _ } -> node = victim | _ -> false));
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "regraft of %d traced" c)
        true
        (has (function
          | Trace.Regraft { node; new_parent; _ } -> node = c && new_parent = grandparent
          | _ -> false)))
    orphans

let test_eviction_drives_index_delta () =
  (* the wiring Dynamic relies on: a clustering index registered through
     [Protocol.set_on_evict] follows a detector-driven eviction as an
     incremental delta and matches a fresh build over the survivors *)
  let ds = small_dataset ~seed:97 20 in
  let space = Bwc_metric.Space.cached (Bwc_dataset.Dataset.metric ds) in
  let classes = Classes.of_percentiles ~count:5 ds in
  let ens = Ensemble.build ~rng:(Rng.create 98) space in
  let p =
    Protocol.create ~rng:(Rng.create 99) ~n_cut:4 ~detector:Detector.default_config
      ~classes ens
  in
  let (_ : int) = Protocol.run_aggregation ~max_rounds:600 p in
  let idx = Find_cluster.Index.build_subset space (Ensemble.members ens) in
  Protocol.set_on_evict p (fun h ->
      if Find_cluster.Index.is_member idx h then Find_cluster.Index.remove_host idx h);
  let victim = find_midtree_victim ens in
  Protocol.crash_host p victim;
  let (_ : int) = drive_until_healed p ~until_repairs:1 in
  Alcotest.(check bool) "victim left the index" false
    (Find_cluster.Index.is_member idx victim);
  let fresh = Find_cluster.Index.build_subset space (Ensemble.members ens) in
  Alcotest.(check (list int)) "members match survivors"
    (index_members fresh)
    (index_members idx);
  let ls = [| 10.0; 100.0; 1000.0 |] in
  Alcotest.(check (array int)) "answers match a fresh build"
    (index_max_sizes fresh ls)
    (index_max_sizes idx ls)

(* The own CRT row a clean node must hold: Index.max_size per class over
   its clustering space, rebuilt from the dump as the node plus every
   host in its aggrNode tables. *)
let own_row_oracle ens classes (nd : Protocol.node_dump) =
  let self = Node_info.make ~host:nd.nd_id ~labels:(Ensemble.labels ens nd.nd_id) in
  let infos =
    List.fold_left
      (fun acc (i : Node_info.t) ->
        if List.exists (fun (j : Node_info.t) -> j.host = i.host) acc then acc else i :: acc)
      []
      (self :: List.concat_map aggr_node nd.nd_links)
    |> List.rev |> Array.of_list
  in
  let space =
    Space.make ~n:(Array.length infos) ~dist:(fun i j ->
        if i = j then 0.0 else Node_info.dist infos.(i) infos.(j))
  in
  let idx = Find_cluster.Index.build (Space.cached space) in
  Array.map (fun l -> Find_cluster.Index.max_size idx ~l) (Classes.distances classes)

let node_dump p x =
  List.find (fun nd -> nd.Protocol.nd_id = x) (Protocol.dump p).Protocol.d_nodes

(* [watcher]'s lease on [peer], read through the dump *)
let lease p ~watcher ~peer =
  match
    List.find_opt (fun (l : Protocol.link_dump) -> l.l_peer = peer) (node_dump p watcher).nd_links
  with
  | Some { l_lease = Some lease; _ } -> lease
  | Some _ | None -> Alcotest.failf "%d holds no lease on %d" watcher peer

let test_query_before_step_recounts () =
  (* A query that a node answers itself builds the node's cached
     clustering space.  Evicting a leaf shrinks its parent's space and no
     neighbor re-sends to the parent, so the parent's next step is the
     only recount: it must happen although the query already cached the
     shrunken space. *)
  let ds = small_dataset ~seed:61 24 in
  let space = Bwc_dataset.Dataset.metric ds in
  let classes = Classes.of_percentiles ~count:5 ds in
  let build () =
    let ens = Ensemble.build ~rng:(Rng.create 62) space in
    let p = Protocol.create ~rng:(Rng.create 63) ~n_cut:4 ~classes ens in
    (ens, p)
  in
  (* before aggregation: every own row is 1, so a query only routes *)
  let ens, p = build () in
  let at = List.hd (Ensemble.members ens) in
  let (_ : Query.result) = Protocol.query p ~at ~k:2 ~cls:0 in
  let (_ : int) = Protocol.run_aggregation p in
  Alcotest.(check (array int)) "own row after aggregation"
    (own_row_oracle ens classes (node_dump p at))
    (Protocol.crt_row p at at);
  (* the first leaf whose eviction leaves its parent's row stale *)
  let anchor = Framework.anchor (Ensemble.primary ens) in
  let leaves =
    List.filter
      (fun h -> Anchor.children anchor h = [] && Anchor.parent anchor h <> None)
      (Ensemble.members ens)
  in
  let evict leaf =
    let ens, p = build () in
    let (_ : int) = Protocol.run_aggregation p in
    let parent = Option.get (Anchor.parent (Framework.anchor (Ensemble.primary ens)) leaf) in
    Protocol.repair p ~dead:[ leaf ];
    (ens, p, parent)
  in
  let stale leaf =
    let ens, p, parent = evict leaf in
    Protocol.crt_row p parent parent <> own_row_oracle ens classes (node_dump p parent)
  in
  match List.find_opt stale leaves with
  | None -> Alcotest.fail "no leaf eviction changes its parent's row"
  | Some leaf ->
      let ens, p, parent = evict leaf in
      let row = Protocol.crt_row p parent parent in
      let cls = ref 0 in
      while row.(!cls) < 2 do incr cls done;
      let r = Protocol.query p ~at:parent ~k:row.(!cls) ~cls:!cls in
      Alcotest.(check (list int)) "answered at the parent" [ parent ] r.Query.path;
      let (_ : int) = Protocol.run_aggregation p in
      Alcotest.(check (array int)) "parent's own row recounted"
        (own_row_oracle ens classes (node_dump p parent))
        (Protocol.crt_row p parent parent)

let test_incremental_repair_matches_full () =
  (* the tentpole property: manual incremental repair reaches the same
     fixed point as eviction + full re-propagation, in fewer messages *)
  let ds = small_dataset ~seed:94 24 in
  let space = Bwc_dataset.Dataset.metric ds in
  let classes = Classes.of_percentiles ~count:5 ds in
  let ensemble () = Ensemble.build ~rng:(Rng.create 95) space in
  let converged ens =
    let p = Protocol.create ~rng:(Rng.create 96) ~n_cut:4 ~classes ens in
    let (_ : int) = Protocol.run_aggregation ~max_rounds:600 p in
    p
  in
  let ens_inc = ensemble () in
  let p_inc = converged ens_inc in
  let victim = find_midtree_victim ens_inc in
  (* incremental arm: evict + heal locally, reconverge *)
  Protocol.crash_host p_inc victim;
  let msgs0_inc = Protocol.messages_sent p_inc in
  Protocol.repair p_inc ~dead:[ victim ];
  let (_ : int) = Protocol.run_aggregation ~max_rounds:600 p_inc in
  let repair_msgs = Protocol.messages_sent p_inc - msgs0_inc in
  (* full arm: the same eviction, before a fresh protocol propagates
     everything *)
  let ens_full = ensemble () in
  let (_ : (int * int) list) = Ensemble.evict_host ens_full victim in
  let p_full = converged ens_full in
  let full_msgs = Protocol.messages_sent p_full in
  (* both arms repaired the overlay identically (the nearest-live-ancestor
     rule does not depend on how the repair was driven) *)
  let edges ens =
    let anchor = Framework.anchor (Ensemble.primary ens) in
    List.sort compare
      (List.concat_map
         (fun h -> List.map (fun c -> (h, c)) (Anchor.children anchor h))
         (Ensemble.members ens))
  in
  Alcotest.(check (list (pair int int))) "same repaired overlay" (edges ens_full)
    (edges ens_inc);
  check_members_fixpoint ens_inc p_full p_inc;
  Alcotest.(check bool)
    (Printf.sprintf "incremental cheaper (%d vs %d msgs)" repair_msgs full_msgs)
    true
    (repair_msgs < full_msgs)

let test_routing_detours_suspects () =
  (* a crashed node is suspected, and so detoured around by query
     routing, before it is confirmed and repaired *)
  let ds = small_dataset ~seed:97 20 in
  let space = Bwc_dataset.Dataset.metric ds in
  let classes = Classes.of_percentiles ~count:5 ds in
  let ens = Ensemble.build ~rng:(Rng.create 98) space in
  let p =
    Protocol.create ~rng:(Rng.create 99) ~n_cut:4 ~detector:Detector.default_config
      ~classes ens
  in
  let (_ : int) = Protocol.run_aggregation ~max_rounds:600 p in
  let victim = find_midtree_victim ens in
  let watcher =
    match Ensemble.anchor_neighbors ens victim with
    | w :: _ -> w
    | [] -> Alcotest.fail "victim has no neighbors"
  in
  Alcotest.(check bool) "not suspected while alive" false
    (Detector.suspects (lease p ~watcher ~peer:victim));
  Protocol.crash_host p victim;
  (* run rounds until suspicion sets in, stopping before confirmation *)
  let rec wait i =
    if i > 2 * Detector.default_config.Detector.suspect_after + 4 then
      Alcotest.fail "never suspected"
    else if (lease p ~watcher ~peer:victim).Detector.state <> Detector.Suspected then begin
      let (_ : bool) = Protocol.run_round p in
      wait (i + 1)
    end
  in
  wait 0;
  Alcotest.(check int) "suspected, not yet repaired" 0 (Protocol.repairs_run p);
  Alcotest.(check bool) "suspect flagged for routing" true
    (Detector.suspects (lease p ~watcher ~peer:victim))

let test_detector_mid_lease_round_trip () =
  (* a dump taken while a crashed member's leases run towards expiry
     restores mid-lease, over a restored copy of the ensemble *)
  let ds = small_dataset ~seed:8 16 in
  let c = Bwc_metric.Bandwidth.default_c in
  let rng = Rng.create 7 in
  let space = Bwc_dataset.Dataset.metric ~c ds in
  let fw = Ensemble.build ~rng:(Rng.split rng) space in
  let classes = Classes.of_percentiles ~c ds in
  let p =
    Protocol.create ~rng:(Rng.split rng) ~detector:Detector.default_config ~classes fw
  in
  let (_ : int) = Protocol.run_aggregation p in
  let victim = List.hd (List.rev (Ensemble.members fw)) in
  Protocol.crash_host p victim;
  (* run only until suspicion can exist, not until confirmation *)
  for _ = 1 to Detector.default_config.Detector.suspect_after + 2 do
    ignore (Protocol.run_round p : bool)
  done;
  let fw' = Ensemble.of_dump space (Ensemble.dump fw) in
  let pr = Protocol.of_dump ~classes fw' (Protocol.dump p) in
  (* a running lease is work still to do: a reactor booted from this
     state must start dirty and keep running rounds *)
  Alcotest.(check bool) "restored mid-lease is not quiescent" false (Protocol.quiescent pr);
  (* the crashed-but-not-yet-evicted member restores crashed: a query
     submitted there is an immediate miss *)
  let q = Protocol.query pr ~at:victim ~k:2 ~cls:0 in
  Alcotest.(check bool) "crashed host restores crashed" false (Query.found q);
  (* leases kept running: the restored survivors confirm the death and
     evict without re-observing the full silence window *)
  let (_ : int) = Protocol.run_aggregation ~max_rounds:400 pr in
  Alcotest.(check bool) "victim evicted after restore" false (Ensemble.is_member fw' victim);
  Alcotest.(check bool) "quiescent once evicted" true (Protocol.quiescent pr);
  Alcotest.(check bool) "original also evicts" true
    (let (_ : int) = Protocol.run_aggregation ~max_rounds:400 p in
     not (Ensemble.is_member fw victim))

let test_detector_config_validation () =
  (* satellite coverage: every config field boundary.  The thresholds are
     ordered (heartbeat_every + 1 < suspect_after < confirm_after) so a
     single lost heartbeat can never look like a death *)
  let mk ?(heartbeat_every = 2) ?(suspect_after = 6) ?(confirm_after = 10)
      ?(jitter = 0) () =
    { Detector.heartbeat_every; suspect_after; confirm_after; jitter }
  in
  let rejects name cfg =
    match Detector.create ~rng:(Rng.create 1) cfg with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: invalid config accepted" name
  in
  rejects "zero heartbeat interval" (mk ~heartbeat_every:0 ());
  rejects "negative heartbeat interval" (mk ~heartbeat_every:(-3) ());
  rejects "zero suspect_after" (mk ~suspect_after:0 ());
  rejects "negative suspect_after" (mk ~suspect_after:(-1) ());
  rejects "suspect_after = heartbeat_every + 1"
    (mk ~heartbeat_every:2 ~suspect_after:3 ());
  rejects "confirm_after = suspect_after" (mk ~suspect_after:6 ~confirm_after:6 ());
  rejects "confirm_after < suspect_after" (mk ~suspect_after:6 ~confirm_after:5 ());
  rejects "negative jitter" (mk ~jitter:(-1) ());
  (* the tightest ordering that satisfies every constraint is accepted *)
  let d =
    Detector.create ~rng:(Rng.create 1)
      (mk ~heartbeat_every:1 ~suspect_after:3 ~confirm_after:4 ())
  in
  Alcotest.(check int) "tightest valid config accepted" 1
    (Detector.config d).Detector.heartbeat_every

let test_epoch_monotone_across_repairs () =
  (* satellite coverage: the repair epoch over repeated crash/repair
     cycles.  It must bump exactly once per repair batch, never stall and
     never wrap, and it must survive a dump/of_dump round trip so a
     restart cannot resurrect pre-repair link state *)
  let ds = small_dataset ~seed:93 24 in
  let space = Bwc_dataset.Dataset.metric ds in
  let classes = Classes.of_percentiles ~count:5 ds in
  let ens = Ensemble.build ~rng:(Rng.create 94) space in
  let p =
    Protocol.create ~rng:(Rng.create 95) ~n_cut:4
      ~detector:Detector.default_config ~classes ens
  in
  let (_ : int) = Protocol.run_aggregation ~max_rounds:600 p in
  Alcotest.(check int) "epoch starts at 0" 0 (epoch p);
  let cycles = 4 in
  let last = ref 0 in
  for i = 1 to cycles do
    Protocol.crash_host p (find_midtree_victim ens);
    let (_ : int) = drive_until_healed p ~until_repairs:i in
    let e = epoch p in
    Alcotest.(check bool)
      (Printf.sprintf "epoch grew at cycle %d" i)
      true (e > !last);
    last := e
  done;
  Alcotest.(check int) "one epoch bump per repair batch" cycles (epoch p);
  Alcotest.(check int) "all victims repaired" cycles (Protocol.repairs_run p);
  (* a query at a surviving member still routes on the repaired overlay *)
  let survivor = List.hd (Ensemble.members ens) in
  let (_ : Query.result) = Protocol.query p ~at:survivor ~k:2 ~cls:0 in
  (* the epoch clock is part of the durable state *)
  let p2 = Protocol.of_dump ~classes ens (Protocol.dump p) in
  Alcotest.(check int) "epoch preserved by dump round trip" (epoch p)
    (epoch p2)

let test_of_dump_pacing_constants () =
  (* an image records the retransmission pacing it ran under; a restored
     protocol runs under this build's constants, so other values are
     refused rather than silently replaced *)
  let ds = small_dataset ~seed:96 12 in
  let classes = Classes.of_percentiles ~count:5 ds in
  let ens = Ensemble.build ~rng:(Rng.create 97) (Bwc_dataset.Dataset.metric ds) in
  let p = Protocol.create ~rng:(Rng.create 98) ~n_cut:4 ~classes ens in
  let (_ : int) = Protocol.run_aggregation p in
  let d = Protocol.dump p in
  let refused field d =
    Alcotest.check_raises field
      (Invalid_argument ("Protocol.of_dump: " ^ field ^ " differs"))
      (fun () -> ignore (Protocol.of_dump ~classes ens d))
  in
  refused "resend_timeout" { d with Protocol.d_resend_timeout = 4 };
  refused "max_retransmits" { d with Protocol.d_max_retransmits = 0 };
  Alcotest.(check bool) "own dump restores quiescent" true
    (Protocol.quiescent (Protocol.of_dump ~classes ens d))

let test_dynamic_empty_members_query () =
  (* satellite regression: a query against an empty membership must be a
     clean miss, not an Rng.choose crash *)
  let ds = small_dataset ~seed:100 8 in
  let dyn = Bwc_core.Dynamic.create ~seed:101 ~initial_members:[] ds in
  Alcotest.(check int) "no members" 0 (Bwc_core.Dynamic.member_count dyn);
  let r = Bwc_core.Dynamic.query dyn ~k:2 ~b:10.0 in
  Alcotest.(check bool) "miss" false (Query.found r);
  Alcotest.(check (list int)) "empty path" [] r.Query.path;
  Alcotest.(check int) "no hops" 0 r.Query.hops

(* ----- Algorithm 4: query routing ----- *)

let test_query_finds_promised_clusters () =
  let ds, _, protocol = build_protocol ~seed:12 26 in
  let classes = protocol_classes ds in
  for x = 0 to 25 do
    for cls = 0 to Classes.count classes - 1 do
      let promised = Protocol.max_reachable protocol x ~cls in
      if promised >= 2 then begin
        let r = Protocol.query protocol ~at:x ~k:promised ~cls in
        match r.Query.cluster with
        | Some cluster ->
            Alcotest.(check int) "cluster size" promised (List.length cluster)
        | None ->
            Alcotest.failf "host %d promised k=%d for class %d but query missed" x
              promised cls
      end
    done
  done

let test_query_miss_beyond_promise () =
  let ds, _, protocol = build_protocol ~seed:13 20 in
  let classes = protocol_classes ds in
  for x = 0 to 19 do
    let cls = Classes.count classes - 1 in
    let promised = Protocol.max_reachable protocol x ~cls in
    let r = Protocol.query protocol ~at:x ~k:(promised + 1) ~cls in
    (* the aggregated maxima are exact (Theorem 3.3), so k beyond the
       promise must miss *)
    if Query.found r then Alcotest.failf "host %d found more than promised" x
  done

let test_query_cluster_satisfies_predicted_constraint () =
  let ds, ens, protocol = build_protocol ~seed:14 26 in
  let classes = protocol_classes ds in
  let rng = Rng.create 15 in
  for _ = 1 to 60 do
    let at = Rng.int rng 26 in
    let cls = Rng.int rng (Classes.count classes) in
    let r = Protocol.query protocol ~at ~k:3 ~cls in
    match r.Query.cluster with
    | None -> ()
    | Some cluster ->
        let l = Classes.distance classes cls in
        List.iteri
          (fun i x ->
            List.iteri
              (fun j y ->
                if j > i then begin
                  let d = Ensemble.label_dist (Ensemble.labels ens x) (Ensemble.labels ens y) in
                  if d > l *. (1.0 +. 1e-6) then
                    Alcotest.failf "pair (%d,%d) predicted %.3f > l %.3f" x y d l
                end)
              cluster)
          cluster
  done

let test_query_hops_bounded () =
  let ds, ens, protocol = build_protocol ~seed:16 30 in
  let anchor_tree = Bwc_predtree.Framework.anchor (Ensemble.primary ens) in
  let bound = 2 * Anchor.max_depth anchor_tree in
  let rng = Rng.create 17 in
  let classes = protocol_classes ds in
  for _ = 1 to 100 do
    let at = Rng.int rng 30 in
    let cls = Rng.int rng (Classes.count classes) in
    let r = Protocol.query protocol ~at ~k:(2 + Rng.int rng 8) ~cls in
    if r.Query.hops > bound then Alcotest.failf "hops %d exceed bound %d" r.Query.hops bound;
    (* the path is simple: no host visited twice *)
    let sorted = List.sort_uniq compare r.Query.path in
    Alcotest.(check int) "simple path" (List.length r.Query.path) (List.length sorted)
  done

let test_decentral_rr_bounded_by_central () =
  let ds = small_dataset ~seed:18 40 in
  let sys = Dynamic.create ~seed:19 ds in
  (* TREE-CENTRAL: Algorithm 1 over the full predicted space *)
  let central =
    Find_cluster.Index.build
      (Space.cached (Ensemble.predicted_space (Dynamic.ensemble sys)))
  in
  let rng = Rng.create 20 in
  let lo, hi = Bwc_dataset.Dataset.percentile_range ds ~lo:20.0 ~hi:80.0 in
  for _ = 1 to 80 do
    let k = 2 + Rng.int rng 20 in
    let b = Rng.uniform rng lo hi in
    let dec = Query.found (Dynamic.query sys ~k ~b) in
    let l = Bwc_metric.Bandwidth.to_distance b in
    let cen = Find_cluster.Index.find central ~k ~l <> None in
    (* decentralized spaces are subsets of the full space *)
    if dec && not cen then Alcotest.fail "decentralized found what centralized cannot"
  done

(* ----- Query module ----- *)

let test_query_constructors () =
  let miss = Query.not_found_at 3 in
  Alcotest.(check bool) "miss" false (Query.found miss);
  Alcotest.(check (list int)) "never left the submission node" [ 3 ] miss.Query.path;
  Alcotest.(check int) "no hops" 0 miss.Query.hops;
  Alcotest.(check (list int)) "no member to submit at" [] Query.no_members.Query.path

(* ----- Clique oracle ----- *)

(* brute force max clique on tiny graphs *)
let brute_max_clique ~adj ~n =
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let vertices = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id) in
    let is_clique =
      List.for_all
        (fun u -> List.for_all (fun v -> u = v || adj u v) vertices)
        vertices
    in
    if is_clique then best := Stdlib.max !best (List.length vertices)
  done;
  !best

let test_clique_vs_brute () =
  let rng = Rng.create 40 in
  for _ = 1 to 60 do
    let n = 3 + Rng.int rng 8 in
    let edges = Array.make_matrix n n false in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Rng.float rng 1.0 < 0.5 then begin
          edges.(i).(j) <- true;
          edges.(j).(i) <- true
        end
      done
    done;
    let adj i j = i <> j && edges.(i).(j) in
    let expected = Stdlib.max 1 (brute_max_clique ~adj ~n) in
    (match Bwc_core.Clique.max_clique_size ~adj ~n () with
    | Ok got -> if got <> expected then Alcotest.failf "max clique %d, brute %d" got expected
    | Error (`Budget _) -> Alcotest.fail "budget too small for tiny graph");
    for k = 2 to n do
      match Bwc_core.Clique.exists_clique ~adj ~n ~k () with
      | Bwc_core.Clique.Feasible clique ->
          if k > expected then Alcotest.failf "claimed clique of %d > max %d" k expected;
          Alcotest.(check int) "clique size" k (List.length clique);
          List.iter
            (fun u ->
              List.iter
                (fun v -> if u <> v && not (adj u v) then Alcotest.fail "not a clique")
                clique)
            clique
      | Bwc_core.Clique.Infeasible ->
          if k <= expected then Alcotest.failf "missed clique of %d (max %d)" k expected
      | Bwc_core.Clique.Unknown -> Alcotest.fail "budget too small for tiny graph"
    done
  done

let test_clique_budget_exhaustion () =
  (* a complete graph with a tiny budget must report Unknown, not hang *)
  let adj i j = i <> j in
  (match Bwc_core.Clique.exists_clique ~budget:3 ~adj ~n:40 ~k:40 () with
  | Bwc_core.Clique.Unknown -> ()
  | Bwc_core.Clique.Feasible _ | Bwc_core.Clique.Infeasible ->
      Alcotest.fail "expected budget exhaustion");
  (* k beyond the vertex count is decided instantly *)
  match Bwc_core.Clique.exists_clique ~budget:3 ~adj ~n:40 ~k:41 () with
  | Bwc_core.Clique.Infeasible -> ()
  | Bwc_core.Clique.Feasible _ | Bwc_core.Clique.Unknown ->
      Alcotest.fail "k > n must be infeasible"

let test_clique_threshold_matches_space () =
  let space = tree_space ~seed:41 10 in
  let values = Bwc_metric.Dmatrix.off_diagonal_values (Space.to_dmatrix space) in
  let l = Bwc_stats.Summary.percentile values 50.0 in
  (* exact oracle feasibility must match the brute-force subset search *)
  for k = 2 to 6 do
    let oracle =
      match Bwc_core.Clique.exists_cluster space ~k ~l with
      | Bwc_core.Clique.Feasible _ -> true
      | Bwc_core.Clique.Infeasible -> false
      | Bwc_core.Clique.Unknown -> Alcotest.fail "budget"
    in
    Alcotest.(check bool) "oracle = brute" (brute_exists space k l) oracle
  done

(* ----- Dynamic membership ----- *)

(* membership changes the daemon's way: deferred deltas, then rounds
   until the aggregation is quiescent again *)
let churn dyn events =
  ignore (Bwc_core.Dynamic.apply_deferred dyn events : int);
  ignore (Protocol.run_aggregation (Bwc_core.Dynamic.protocol dyn) : int)

let is_member dyn h = List.mem h (Bwc_core.Dynamic.members dyn)

let test_dynamic_join_leave () =
  let ds = small_dataset ~seed:42 30 in
  let dyn =
    Bwc_core.Dynamic.create ~seed:43 ~initial_members:(List.init 20 Fun.id) ds
  in
  Alcotest.(check int) "initial" 20 (Bwc_core.Dynamic.member_count dyn);
  churn dyn [ Bwc_sim.Churn.Join 25 ];
  Alcotest.(check bool) "joined" true (is_member dyn 25);
  Alcotest.(check int) "count up" 21 (Bwc_core.Dynamic.member_count dyn);
  churn dyn [ Bwc_sim.Churn.Leave 5 ];
  Alcotest.(check bool) "left" false (is_member dyn 5);
  (* queries keep working and never include non-members *)
  let r = Bwc_core.Dynamic.query dyn ~k:4 ~b:25.0 in
  (match r.Query.cluster with
  | Some cluster ->
      List.iter
        (fun h ->
          if not (is_member dyn h) then Alcotest.failf "non-member %d in cluster" h)
        cluster
  | None -> Alcotest.fail "easy query after churn must succeed");
  (* the protocol refuses queries at departed hosts *)
  Alcotest.(check bool) "departed host rejected" true
    (try
       ignore (Bwc_core.Dynamic.query ~at:5 dyn ~k:4 ~b:25.0);
       false
     with Invalid_argument _ -> true)

(* LEAVEs down to one member, then a JOIN: the leaf splices leave dead
   vertices in the one-host prediction tree, and the join must still
   place the newcomer and answer queries *)
let test_dynamic_join_after_one_member () =
  List.iter
    (fun n ->
      let ds = small_dataset ~seed:1 n in
      let dyn = Bwc_core.Dynamic.create ~seed:1 ds in
      List.iter
        (fun h -> churn dyn [ Bwc_sim.Churn.Leave h ])
        (Bwc_core.Dynamic.members dyn);
      Alcotest.(check int) (Printf.sprintf "n=%d: one member left" n) 1
        (Bwc_core.Dynamic.member_count dyn);
      let last = List.hd (Bwc_core.Dynamic.members dyn) in
      let newcomer = if last = 0 then 1 else 0 in
      churn dyn [ Bwc_sim.Churn.Join newcomer ];
      Alcotest.(check (list int)) (Printf.sprintf "n=%d: members" n)
        (List.sort compare [ last; newcomer ])
        (List.sort compare (Bwc_core.Dynamic.members dyn));
      let r = Bwc_core.Dynamic.query ~at:newcomer dyn ~k:2 ~b:1.0 in
      match r.Query.cluster with
      | Some cluster ->
          Alcotest.(check (list int)) (Printf.sprintf "n=%d: answer" n)
            (List.sort compare [ last; newcomer ])
            (List.sort compare cluster)
      | None -> Alcotest.failf "n=%d: no answer after the join" n)
    [ 4; 8 ]

let test_dynamic_maintained_index () =
  let ds = small_dataset ~seed:52 24 in
  let dyn =
    Bwc_core.Dynamic.create ~seed:53 ~initial_members:(List.init 16 Fun.id) ds
  in
  let check_tracks () =
    Alcotest.(check (list int)) "index tracks membership"
      (List.sort compare (Bwc_core.Dynamic.members dyn))
      (index_members (Bwc_core.Dynamic.index dyn))
  in
  (* materialise the index, then churn: joins and leaves must flow into
     it as deltas *)
  check_tracks ();
  churn dyn [ Bwc_sim.Churn.Join 20 ];
  churn dyn [ Bwc_sim.Churn.Leave 3 ];
  churn dyn [ Bwc_sim.Churn.Join 21; Bwc_sim.Churn.Leave 7 ];
  check_tracks ();
  (* the centralized query path answers from the maintained index with a
     cluster that satisfies the converted bandwidth constraint *)
  let b = 25.0 in
  match Bwc_core.Dynamic.query_centralized dyn ~k:4 ~b with
  | None -> Alcotest.fail "easy centralized query must succeed"
  | Some cluster ->
      Alcotest.(check int) "size" 4 (List.length cluster);
      List.iter
        (fun h ->
          if not (is_member dyn h) then
            Alcotest.failf "non-member %d in centralized cluster" h)
        cluster;
      let space = Bwc_dataset.Dataset.metric ds in
      let l = Bwc_metric.Bandwidth.to_distance b in
      Alcotest.(check bool) "diameter within constraint" true
        (Space.diameter space cluster <= l *. (1.0 +. Find_cluster.diam_tol))

let test_dynamic_theorem_3_3_after_churn () =
  (* aggregated CRT entries stay exact on the surviving overlay *)
  let ds = small_dataset ~seed:44 24 in
  let dyn = Bwc_core.Dynamic.create ~seed:45 ds in
  churn dyn [ Bwc_sim.Churn.Leave 3; Bwc_sim.Churn.Leave 11; Bwc_sim.Churn.Leave 17 ];
  let protocol = Bwc_core.Dynamic.protocol dyn in
  let ens = Bwc_core.Dynamic.ensemble dyn in
  let anchor_tree = Bwc_predtree.Framework.anchor (Ensemble.primary ens) in
  let classes = Bwc_core.Dynamic.classes dyn in
  List.iter
    (fun x ->
      List.iter
        (fun m ->
          let got = Protocol.crt_row protocol x m in
          let u = reachable_via anchor_tree ~x ~m in
          for cls = 0 to Classes.count classes - 1 do
            let expected =
              List.fold_left
                (fun acc w -> Stdlib.max acc (Protocol.crt_row protocol w w).(cls))
                0 u
            in
            if got.(cls) <> expected then
              Alcotest.failf "stale CRT after churn at %d->%d" x m
          done)
        (Ensemble.anchor_neighbors ens x))
    (Bwc_core.Dynamic.members dyn)

let test_dynamic_random_churn_invariants () =
  let ds = small_dataset ~seed:46 25 in
  let dyn = Bwc_core.Dynamic.create ~seed:47 ds in
  let churn =
    Bwc_sim.Churn.random ~rng:(Rng.create 48) ~n:25 ~rounds:5 ~leave_prob:0.15
      ~rejoin_prob:0.4
  in
  Bwc_core.Dynamic.run_scenario dyn ~churn ~rounds:5 ~on_round:(fun _ dyn ->
      let members = Bwc_core.Dynamic.members dyn in
      Alcotest.(check bool) "nonempty" true (members <> []);
      (* the primary prediction tree stays structurally sound *)
      let tree =
        Bwc_predtree.Framework.tree (Ensemble.primary (Bwc_core.Dynamic.ensemble dyn))
      in
      Alcotest.(check bool) "tree invariant" true (Bwc_predtree.Tree.is_tree tree);
      (* label arity stays aligned across members *)
      let ens = Bwc_core.Dynamic.ensemble dyn in
      List.iter
        (fun h ->
          Alcotest.(check int) "label arity" (Ensemble.size ens)
            (Array.length (Ensemble.labels ens h)))
        members)

(* n = 48 with 36 members and a failure detector: the member with the
   most overlay neighbours crashes and rounds run until the detector has
   evicted it *)
let evicted_system seed =
  let ds = small_dataset ~seed 48 in
  let ens =
    Ensemble.build ~rng:(Rng.create (seed + 1)) ~members:(List.init 36 Fun.id)
      (Bwc_dataset.Dataset.metric ds)
  in
  let classes = Classes.of_percentiles ~count:4 ds in
  let p =
    Protocol.create ~rng:(Rng.create (seed + 2)) ~detector:Detector.default_config ~classes
      ens
  in
  let (_ : int) = Protocol.run_aggregation p in
  let degree h = List.length (Ensemble.anchor_neighbors ens h) in
  let victim =
    List.fold_left
      (fun best h -> if degree h > degree best then h else best)
      (List.hd (Ensemble.members ens)) (Ensemble.members ens)
  in
  let labels_before = Ensemble.labels ens victim in
  Protocol.crash_host p victim;
  let rounds = ref 0 in
  while Ensemble.is_member ens victim do
    incr rounds;
    if !rounds > 200 then Alcotest.failf "seed %d: %d never evicted" seed victim;
    ignore (Protocol.run_round p : bool)
  done;
  (ens, victim, labels_before)

(* every member pair: the label distance is the tree's path sum *)
let check_labels_match_trees what ens =
  Array.iteri
    (fun i fw ->
      let tree = Bwc_predtree.Framework.tree fw in
      if not (Bwc_predtree.Tree.is_tree tree) then Alcotest.failf "%s: tree %d broken" what i;
      let ms = Bwc_predtree.Framework.members fw in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if a < b then begin
                let via_label = Bwc_predtree.Framework.predicted fw a b in
                let via_tree = Bwc_predtree.Tree.host_dist tree a b in
                if not (feq ~eps:1e-6 via_label via_tree) then
                  Alcotest.failf "%s: tree %d (%d,%d) label %g vs tree %g" what i a b
                    via_label via_tree
              end)
            ms)
        ms)
    (Ensemble.frameworks ens)

let test_join_after_eviction () =
  for seed = 1 to 40 do
    let ens, _, _ = evicted_system seed in
    for h = 36 to 47 do
      Ensemble.add_host ~rng:(Rng.create (seed + h)) ens h
    done;
    check_labels_match_trees (Printf.sprintf "seed %d" seed) ens
  done

let test_evicted_host_rejoins () =
  let revived = ref 0 in
  for seed = 1 to 40 do
    let ens, victim, labels_before = evicted_system seed in
    let fws = Ensemble.frameworks ens in
    let ghost =
      Array.map (fun fw -> Bwc_predtree.Tree.mem (Bwc_predtree.Framework.tree fw) victim) fws
    in
    Ensemble.add_host ~rng:(Rng.create (seed + 3)) ens victim;
    Alcotest.(check bool) "member again" true (Ensemble.is_member ens victim);
    (* a tree that kept the victim's ghost revives it with its old label *)
    Array.iteri
      (fun i fw ->
        if ghost.(i) then begin
          incr revived;
          if Slot_table.label_key (Bwc_predtree.Framework.label fw victim)
             <> Slot_table.label_key labels_before.(i)
          then
            Alcotest.failf "seed %d: tree %d revived the ghost with another label" seed i
        end)
      fws;
    check_labels_match_trees (Printf.sprintf "seed %d" seed) ens
  done;
  Alcotest.(check bool) "some ghosts revived" true (!revived > 0)

let test_replaced_label_reaches_aggregators () =
  (* A LEAVE splices a host that no placement anchors on, and its next
     JOIN places it afresh, with a new label.  With no round in between,
     a neighbour's next propNode can list the same hosts as before: when
     payloads were compared by host alone it was neither sent nor
     applied, and the old label outlived quiescence in aggrNode tables
     (2 of these 100 seeds; 959 of the 1,000 rejoins got a new label). *)
  let replaced = ref 0 in
  for seed = 1 to 100 do
    let ds = small_dataset ~seed 30 in
    let classes = Classes.of_percentiles ~count:8 ds in
    let rng = Rng.create seed in
    let ens =
      Ensemble.build ~rng:(Rng.split rng) ~members:(List.init 28 Fun.id)
        (Bwc_dataset.Dataset.metric ds)
    in
    let current h = Slot_table.key (Node_info.make ~host:h ~labels:(Ensemble.labels ens h)) in
    let p = Protocol.create ~rng:(Rng.split rng) ~classes ens in
    let (_ : int) = Protocol.run_aggregation p in
    for _ = 1 to 10 do
      let h = Rng.choose rng (Array.of_list (Ensemble.members ens)) in
      let before = current h in
      Protocol.repair p ~dead:[ h ];
      Ensemble.add_host ~rng ens h;
      Protocol.refresh_topology p;
      if current h <> before then incr replaced
    done;
    let (_ : int) = Protocol.run_aggregation p in
    List.iter
      (fun (nd : Protocol.node_dump) ->
        List.iter
          (fun (l : Protocol.link_dump) ->
            List.iter
              (fun (i : Node_info.t) ->
                if Slot_table.key i <> current i.host then
                  Alcotest.failf "seed %d: aggrNode[%d] at %d holds an old label of %d" seed
                    l.l_peer nd.Protocol.nd_id i.host)
              (aggr_node l))
          nd.Protocol.nd_links)
      (Protocol.dump p).Protocol.d_nodes
  done;
  Alcotest.(check bool) "some rejoins were placed afresh" true (!replaced > 0)

let test_framework_add_remove_roundtrip () =
  let space = tree_space ~seed:49 16 in
  let fw =
    Bwc_predtree.Framework.build ~rng:(Rng.create 50)
      ~members:(List.init 12 Fun.id) space
  in
  Alcotest.(check int) "partial build" 12 (Bwc_predtree.Framework.size fw);
  Bwc_predtree.Framework.add_host ~rng:(Rng.create 51) fw 14;
  Alcotest.(check bool) "added" true (Bwc_predtree.Framework.is_member fw 14);
  (* distances involving the new host are defined and consistent *)
  let tree = Bwc_predtree.Framework.tree fw in
  List.iter
    (fun h ->
      if h <> 14 then begin
        let via_label = Bwc_predtree.Framework.predicted fw 14 h in
        let via_tree = Bwc_predtree.Tree.host_dist tree 14 h in
        if not (feq ~eps:1e-6 via_label via_tree) then Alcotest.fail "label mismatch"
      end)
    (Bwc_predtree.Framework.members fw);
  let (_ : (int * int) list) = Bwc_predtree.Framework.evict_host fw 14 in
  Alcotest.(check bool) "removed" false (Bwc_predtree.Framework.is_member fw 14);
  Alcotest.(check int) "count restored" 12 (Bwc_predtree.Framework.size fw)

(* ----- Node search ----- *)

let test_node_search_brute_force () =
  let space = tree_space ~seed:21 15 in
  let targets = [ 2; 7; 11 ] in
  match Bwc_core.Node_search.best ~n:space.Space.n ~dist:(Space.dist space) ~targets with
  | None -> Alcotest.fail "candidates exist"
  | Some (best, radius) ->
      Alcotest.(check bool) "not a target" false (List.mem best targets);
      let radius_of x =
        List.fold_left (fun acc s -> Float.max acc (Space.dist space x s)) 0.0 targets
      in
      Alcotest.(check bool) "radius consistent" true (feq radius (radius_of best));
      for x = 0 to 14 do
        if not (List.mem x targets) && radius_of x +. 1e-9 < radius then
          Alcotest.failf "host %d is better" x
      done

let test_node_search_empty_targets () =
  let space = tree_space ~seed:22 8 in
  Alcotest.(check bool) "none" true
    (Bwc_core.Node_search.best ~n:space.Space.n ~dist:(Space.dist space) ~targets:[] = None)

(* ----- system facade ----- *)

let predicted sys i j = Ensemble.predicted (Dynamic.ensemble sys) i j

(* the pairs of a cluster below [b] in the real matrix, counted by hand *)
let violations ds ~b cluster =
  let bad = ref 0 in
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y -> if j > i && Bwc_dataset.Dataset.bw ds x y < b then incr bad)
        cluster)
    cluster;
  !bad

let test_system_end_to_end () =
  let ds = small_dataset ~seed:23 50 in
  let sys = Dynamic.create ~seed:24 ds in
  Alcotest.(check int) "size" 50 (Dynamic.member_count sys);
  let r = Dynamic.query sys ~at:3 ~k:5 ~b:30.0 in
  (match r.Query.cluster with
  | Some cluster ->
      Alcotest.(check int) "k" 5 (List.length cluster);
      (* verify_cluster agrees with a manual recount *)
      Alcotest.(check int) "verify_cluster" (violations ds ~b:30.0 cluster)
        (List.length (Dynamic.verify_cluster sys ~b:30.0 cluster))
  | None -> Alcotest.fail "easy query must succeed");
  (* predictions are symmetric with a zero diagonal *)
  Alcotest.(check bool) "pred symmetric" true
    (feq (predicted sys 1 2) (predicted sys 2 1));
  Alcotest.(check bool) "pred diagonal" true (Float.equal (predicted sys 4 4) 0.0)

let test_system_deterministic () =
  let ds = small_dataset ~seed:25 30 in
  let a = Dynamic.create ~seed:26 ds in
  let b = Dynamic.create ~seed:26 ds in
  for i = 0 to 29 do
    for j = i + 1 to 29 do
      if not (feq (predicted a i j) (predicted b i j)) then
        Alcotest.fail "same seed, same predictions"
    done
  done

let test_protocol_refresh_topology () =
  (* every member already has its slot: the refresh changes nothing *)
  let _, _, protocol = build_protocol ~seed:30 18 in
  let before = Protocol.dump protocol and sent = Protocol.messages_sent protocol in
  Protocol.refresh_topology protocol;
  Alcotest.(check bool) "dump unchanged" true (Protocol.dump protocol = before);
  Alcotest.(check bool) "quiescent" true (Protocol.quiescent protocol);
  Alcotest.(check bool) "stable" false (Protocol.run_round protocol);
  Alcotest.(check int) "nothing sent" sent (Protocol.messages_sent protocol)

let test_protocol_join_relinks_locally () =
  (* a join hangs one leaf under one overlay parent: the refresh gives
     the newcomer its slot and dirties only it and its neighbours, and
     the aggregation reconverges to a fresh protocol's fixed point *)
  let ds = small_dataset ~seed:31 18 in
  let classes = protocol_classes ds in
  let ens =
    Ensemble.build ~rng:(Rng.create 32) ~members:(List.init 17 Fun.id)
      (Bwc_dataset.Dataset.metric ds)
  in
  let p = Protocol.create ~rng:(Rng.create 33) ~n_cut ~classes ens in
  let (_ : int) = Protocol.run_aggregation p in
  Ensemble.add_host ~rng:(Rng.create 34) ens 17;
  Protocol.refresh_topology p;
  let dirty =
    List.filter_map
      (fun nd -> if nd.Protocol.nd_dirty then Some nd.Protocol.nd_id else None)
      (Protocol.dump p).Protocol.d_nodes
  in
  Alcotest.(check (list int)) "the newcomer and its neighbours"
    (List.sort compare (17 :: Ensemble.anchor_neighbors ens 17))
    dirty;
  let (_ : int) = Protocol.run_aggregation p in
  let fresh = Protocol.create ~rng:(Rng.create 33) ~n_cut ~classes ens in
  let (_ : int) = Protocol.run_aggregation fresh in
  check_members_fixpoint ens fresh p

(* ----- end-to-end exactness on perfect tree metrics ----- *)

let test_exact_pipeline_zero_wpr () =
  (* access-link dataset = perfect tree metric; exact-mode single-tree
     framework embeds it losslessly; therefore every returned cluster
     must satisfy the real constraint (WPR = 0) and the centralized
     search must agree with brute force feasibility. *)
  let ds = Bwc_dataset.Access_link.generate ~rng:(Rng.create 60) ~n:40 () in
  (* one stream seeds both layers, then draws the submission hosts *)
  let submit = Rng.create 61 in
  let ens =
    Ensemble.build ~rng:(Rng.split submit) ~mode:Bwc_predtree.Framework.centralized_mode
      ~size:1 (Bwc_dataset.Dataset.metric ds)
  in
  let protocol =
    Protocol.create ~rng:(Rng.split submit) ~classes:(Classes.of_percentiles ds) ens
  in
  let (_ : int) = Protocol.run_aggregation protocol in
  let central = Find_cluster.Index.build (Space.cached (Ensemble.predicted_space ens)) in
  let n = Bwc_dataset.Dataset.size ds in
  let rng = Rng.create 62 in
  let lo, hi = Bwc_dataset.Dataset.percentile_range ds ~lo:20.0 ~hi:80.0 in
  for _ = 1 to 60 do
    let b = Rng.uniform rng lo hi in
    let k = 2 + Rng.int rng 8 in
    (match Find_cluster.Index.find central ~k ~l:(Bwc_metric.Bandwidth.to_distance b) with
    | Some cluster ->
        Alcotest.(check int) "no real violations" 0 (violations ds ~b cluster)
    | None -> ());
    let at = Rng.int submit n in
    match (Protocol.query_bandwidth protocol ~at ~k ~b).Query.cluster with
    | Some cluster ->
        Alcotest.(check int) "decentral: no real violations" 0 (violations ds ~b cluster)
    | None -> ()
  done

let test_minimal_system () =
  (* the smallest meaningful system: two hosts *)
  let bwm = Bwc_metric.Dmatrix.create 2 ~diag:Float.infinity ~off:50.0 in
  let ds = Bwc_dataset.Dataset.make ~name:"pair" bwm in
  let sys = Dynamic.create ~seed:63 ~class_count:2 ds in
  let r = Dynamic.query sys ~at:0 ~k:2 ~b:30.0 in
  (match r.Query.cluster with
  | Some [ _; _ ] -> ()
  | Some _ | None -> Alcotest.fail "the pair itself is the cluster");
  Alcotest.(check bool) "infeasible beyond classes" true
    (not (Query.found (Dynamic.query sys ~at:1 ~k:2 ~b:500.0)))

let test_protocol_single_class () =
  let ds = small_dataset ~seed:64 15 in
  let sys = Dynamic.create ~seed:65 ~class_count:1 ds in
  Alcotest.(check int) "one class" 1 (Classes.count (Dynamic.classes sys));
  let r = Dynamic.query sys ~k:3 ~b:1.0 in
  Alcotest.(check bool) "low constraint maps to the single class" true (Query.found r)

(* ----- allocation: the kernels read unboxed distances and the index
   deltas reuse their arrays ----- *)

let test_alloc_index_deltas () =
  (* a = 200 members of a 240-point universe: 19,900 pairs.  Measured:
     963 words for the join (its a - 1 fresh pairs and their in-place
     sort) and none for the leave.  The bound 10 a = 2,000 words leaves
     a 2x margin and is 10x below one word per pair, which any delta
     that copies the pair order would allocate. *)
  let space = tree_space ~seed:31 240 in
  let idx = Find_cluster.Index.build_subset space (List.init 200 Fun.id) in
  let bound = 10.0 *. 200.0 in
  Alloc.check_words "remove_host" ~bound
    (Alloc.words_allocated (fun () -> Find_cluster.Index.remove_host idx 17));
  Alloc.check_words "add_host" ~bound
    (Alloc.words_allocated (fun () -> Find_cluster.Index.add_host idx 17));
  Alcotest.(check int) "membership restored" 200 (Find_cluster.Index.size idx)

(* Words the heap holds after [f], with what it returns kept alive,
   minus those it held before: [Gc.stat] runs a full major collection
   and counts the live words. *)
let words_held f =
  let live () = (Gc.stat ()).Gc.live_words in
  let before = live () in
  let x = f () in
  let held = live () - before in
  ignore (Sys.opaque_identity x);
  float_of_int held

let test_alloc_index_layout () =
  (* a = 200 members of a 240-point universe.  Measured: 86,540 words,
     3 n (n - 1) / 2 = 86,040 of them for the distances, entries and
     prefix maxima of the universe's 28,680 pairs and the rest per
     universe point.  An n x n count array beside those three arrays
     held about 144,000. *)
  let space = tree_space ~seed:31 240 in
  let n = 240 in
  let bound = float_of_int ((3 * n * (n - 1) / 2) + (4 * n)) in
  let held = words_held (fun () -> Find_cluster.Index.build_subset space (List.init 200 Fun.id)) in
  if held > bound then Alcotest.failf "an index holds %.0f words, bound %.0f" held bound

let test_alloc_index_find () =
  (* a = 200: k = 8 at the median distance, which the walk answers, and
     the hardest feasible probe there (k = max_size l = 99), which the
     pass answers.  Measured: 26 and 299 words, the answer's k list cells
     and its option, and no more. *)
  let space = tree_space ~seed:31 240 in
  let idx = Find_cluster.Index.build_subset space (List.init 200 Fun.id) in
  let values = Bwc_metric.Dmatrix.off_diagonal_values (Space.to_dmatrix space) in
  let l = Bwc_stats.Summary.median values in
  List.iter
    (fun k ->
      let found = ref None in
      let words =
        Alloc.words_allocated (fun () -> found := Find_cluster.Index.find idx ~k ~l)
      in
      Alcotest.(check bool) "feasible" true (!found <> None);
      Alloc.check_words (Printf.sprintf "find k=%d" k)
        ~bound:(float_of_int ((3 * k) + 2))
        words)
    [ 8; Find_cluster.Index.max_size idx ~l ]

let test_alloc_kernels () =
  (* n = 80: 3,160 pairs and about 250,000 distance reads per full scan.
     Measured: 6 words for [max_sizes] (its result row), none for an
     infeasible [find] that counts every pair, and 26 for a feasible
     [find] at k = 8: its answer's k list cells and its option, 3 k + 2
     words, which the answer alone needs, so the pick allocates nothing
     else (building S*_pq as a list, filtering it and taking k - 2 of it
     cost 84).  The bound n = 80 words for [max_sizes] (a 13x margin) is
     far below one box per pair, let alone per distance read. *)
  let n = 80 in
  let space = tree_space ~seed:32 n in
  let values = Bwc_metric.Dmatrix.off_diagonal_values (Space.to_dmatrix space) in
  let l = Bwc_stats.Summary.median values in
  let ls = Array.init 5 (fun i -> float_of_int (i + 1) *. l /. 2.0) in
  Alloc.check_words "max_sizes" ~bound:(float_of_int n)
    (Alloc.words_allocated (fun () -> ignore (Find_cluster.max_sizes space ~ls)));
  let found = ref None in
  Alloc.check_words "infeasible find" ~bound:0.0
    (Alloc.words_allocated (fun () -> found := Find_cluster.find space ~k:n ~l));
  Alcotest.(check bool) "infeasible" true (!found = None);
  let k = 8 in
  Alloc.check_words "feasible find" ~bound:(float_of_int ((3 * k) + 2))
    (Alloc.words_allocated (fun () -> found := Find_cluster.find space ~k ~l));
  Alcotest.(check (option int)) "an answer of k hosts" (Some k) (Option.map List.length !found)

let test_alloc_live_query () =
  (* hp-like n = 190, a live query at a random member.  Measured: 107
     words a query (the answer, the routing path, the protocol's
     bookkeeping); 154 while the one-shot [find] that answers at the
     submission host built S*_pq as a list to pick from.  Copying the
     member list to draw the submission host, or boxing the distances of
     the local scans, each cost hundreds of words a query.  The bound,
     581 words, leaves a 5.4x margin. *)
  let ds = Bwc_dataset.Planetlab.hp_like ~seed:1 in
  let sys = Dynamic.create ~seed:1 ds in
  let rng = Rng.create 9 in
  let queries = Array.init 200 (fun _ -> (2 + Rng.int rng 11, 10.0 +. Rng.float rng 80.0)) in
  let words =
    Alloc.words_allocated (fun () ->
        Array.iter (fun (k, b) -> ignore (Dynamic.query sys ~k ~b)) queries)
  in
  Alloc.check_words "a live query" ~bound:581.0 (words /. 200.0)

let test_alloc_find_feeder () =
  (* hp-like n = 190, 5 targets: the search reads the label distances
     between each of the 185 candidates and each target, a median over
     the trees each.  Measured: 48,285 words.  Materialising the
     members' whole label space first costs about 800,000 words (its
     17,955 medians); the bound, 150,000 words, sits between the two. *)
  let sys = Dynamic.create ~seed:1 (Bwc_dataset.Planetlab.hp_like ~seed:1) in
  let targets = [ 0; 1; 2; 3; 4 ] in
  let found = ref None in
  Alloc.check_words "find_feeder" ~bound:150_000.0
    (Alloc.words_allocated (fun () -> found := Dynamic.find_feeder sys ~targets));
  Alcotest.(check bool) "a feeder outside the targets" true
    (match !found with Some (f, _) -> not (List.mem f targets) | None -> false)

let test_alloc_repropagation () =
  (* hp-like n = 80 with 72 members, converged: a repropagation marks
     every member dirty, and in the round that follows no V_x has moved,
     so each step keeps its own row and its propNode lists, rebuilds
     only its propCRT rows, and sends nothing.  Measured: 12,766 words.
     Recounting every own row and sorting every link's candidates again
     cost 167,013.  The bound, 30,000 words, leaves a 2.3x margin. *)
  let sys =
    Dynamic.create ~seed:1 ~initial_members:(List.init 72 Fun.id) (small_dataset ~seed:1 80)
  in
  let p = Dynamic.protocol sys in
  let sent = Protocol.messages_sent p in
  let words =
    Alloc.words_allocated (fun () ->
        Protocol.mark_all_dirty p;
        ignore (Protocol.run_round p : bool))
  in
  Alcotest.(check int) "nothing sent" sent (Protocol.messages_sent p);
  Alcotest.(check bool) "quiescent again" true (Protocol.quiescent p);
  Alloc.check_words "a repropagation round" ~bound:30_000.0 words

let test_find_feeder_among_members () =
  (* hosts outside the overlay have no labels: only members compete *)
  let ds = small_dataset ~seed:67 20 in
  let sys = Dynamic.create ~seed:68 ~initial_members:(List.init 12 Fun.id) ds in
  match Dynamic.find_feeder sys ~targets:[ 0; 1; 2 ] with
  | Some (feeder, bw) ->
      Alcotest.(check bool) "a member outside the targets" true (feeder >= 3 && feeder < 12);
      Alcotest.(check bool) "positive bandwidth" true (bw > 0.0)
  | None -> Alcotest.fail "members outside the targets exist"

let test_query_path_starts_at_submission () =
  let _, _, protocol = build_protocol ~seed:66 20 in
  let r = Protocol.query protocol ~at:7 ~k:2 ~cls:0 in
  match r.Query.path with
  | first :: _ -> Alcotest.(check int) "starts at submission" 7 first
  | [] -> Alcotest.fail "path cannot be empty"

(* ----- qcheck ----- *)

let qcheck_protocol_tests =
  let open QCheck in
  [
    Test.make ~name:"routing invariants hold under random link delays" ~count:8
      (pair (int_range 10 20) (int_range 0 1000))
      (fun (n, seed) ->
        let ds = small_dataset ~seed:(seed + 5000) n in
        let space = Bwc_dataset.Dataset.metric ds in
        let ens = Ensemble.build ~rng:(Rng.create seed) space in
        let classes = Classes.of_percentiles ~count:4 ds in
        let delay_rng = Rng.create (seed + 1) in
        let delays = Hashtbl.create 32 in
        let edge_delay ~src ~dst =
          match Hashtbl.find_opt delays (src, dst) with
          | Some d -> d
          | None ->
              let d = 1 + Rng.int delay_rng 3 in
              Hashtbl.add delays (src, dst) d;
              d
        in
        let protocol =
          Protocol.create ~rng:(Rng.create (seed + 2)) ~n_cut:4 ~edge_delay ~classes ens
        in
        let (_ : int) = Protocol.run_aggregation ~max_rounds:600 protocol in
        (* every promised cluster is found, nothing beyond is *)
        let ok = ref true in
        for x = 0 to n - 1 do
          for cls = 0 to Classes.count classes - 1 do
            let promised = Protocol.max_reachable protocol x ~cls in
            if promised >= 2 then begin
              let r = Protocol.query protocol ~at:x ~k:promised ~cls in
              if not (Bwc_core.Query.found r) then ok := false
            end;
            if
              Bwc_core.Query.found
                (Protocol.query protocol ~at:x ~k:(promised + 1) ~cls)
            then ok := false
          done
        done;
        !ok);
  ]

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"Theorem 3.1 on random tree metrics" ~count:20
      (pair (int_range 5 14) (int_range 0 10_000))
      (fun (n, seed) ->
        let space = tree_space ~seed n in
        let ok = ref true in
        for p = 0 to n - 1 do
          for q = p + 1 to n - 1 do
            let s = Find_cluster.members space ~p ~q in
            if not (feq ~eps:1e-6 (Space.diameter space s) (Space.dist space p q)) then
              ok := false
          done
        done;
        !ok);
    Test.make ~name:"Algorithm 1 feasibility = brute force (tree metrics)" ~count:20
      (pair (int_range 5 9) (int_range 0 10_000))
      (fun (n, seed) ->
        let space = tree_space ~seed n in
        let values =
          Bwc_metric.Dmatrix.off_diagonal_values (Space.to_dmatrix space)
        in
        let l = Bwc_stats.Summary.percentile values 60.0 in
        let ok = ref true in
        for k = 2 to n - 1 do
          if (Find_cluster.find space ~k ~l <> None) <> brute_exists space k l then
            ok := false
        done;
        !ok);
    Test.make ~name:"found clusters always satisfy the constraint" ~count:30
      (pair (int_range 6 16) (int_range 0 10_000))
      (fun (n, seed) ->
        let space = tree_space ~seed n in
        let values =
          Bwc_metric.Dmatrix.off_diagonal_values (Space.to_dmatrix space)
        in
        let l = Bwc_stats.Summary.percentile values 70.0 in
        match Find_cluster.find space ~k:4 ~l with
        | None -> true
        | Some cluster -> Space.diameter space cluster <= l *. (1.0 +. 1e-6));
  ]

let () =
  Alcotest.run "bwc_core"
    [
      ( "algorithm1",
        [
          Alcotest.test_case "members definition" `Quick test_members_definition;
          Alcotest.test_case "Theorem 3.1 diameter" `Quick test_theorem_3_1_diameter;
          Alcotest.test_case "valid cluster" `Quick test_find_returns_valid_cluster;
          Alcotest.test_case "feasibility vs brute force" `Quick test_find_vs_brute_force;
          Alcotest.test_case "max size vs brute force" `Quick test_max_size_vs_brute_force;
          Alcotest.test_case "infeasible cases" `Quick test_find_infeasible;
          Alcotest.test_case "index consistency" `Quick test_index_consistency;
          Alcotest.test_case "index max_sizes" `Quick test_index_max_sizes_vector;
          Alcotest.test_case "index incremental grow/shrink" `Quick
            test_index_incremental_grow_shrink;
          Alcotest.test_case "index delta contract" `Quick test_index_delta_contract;
        ] );
      ( "classes",
        [
          Alcotest.test_case "mapping" `Quick test_classes_mapping;
          Alcotest.test_case "guarantee" `Quick test_classes_guarantee;
          Alcotest.test_case "of_percentiles" `Quick test_classes_of_percentiles;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "Theorem 3.2 (aggrNode)" `Quick test_theorem_3_2_aggr_node;
          Alcotest.test_case "Theorem 3.2 weak form (ensemble)" `Quick
            test_theorem_3_2_weak_for_ensembles;
          Alcotest.test_case "Theorem 3.3 (aggrCRT)" `Quick test_theorem_3_3_aggr_crt;
          Alcotest.test_case "payload bounded by n_cut" `Quick
            test_payload_bounded_by_ncut;
          Alcotest.test_case "quiescence" `Quick test_aggregation_quiescence;
          Alcotest.test_case "convergence bounded by depth" `Quick
            test_convergence_rounds_bounded;
          Alcotest.test_case "same fixpoint under link delays" `Quick
            test_delays_reach_same_fixpoint;
          Alcotest.test_case "global max agreed everywhere" `Quick
            test_global_max_agrees_everywhere;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "same fixpoint under loss/dup/jitter" `Quick
            test_faults_reach_same_fixpoint;
          Alcotest.test_case "crash/restart converges" `Quick
            test_crash_restart_converges;
          Alcotest.test_case "partition heals, queries succeed" `Quick
            test_partition_heals_and_queries_succeed;
          Alcotest.test_case "detector quiet on healthy net" `Quick
            test_detector_clean_run_quiet;
          Alcotest.test_case "detector heals a crash" `Quick test_detector_heals_crash;
          Alcotest.test_case "detector mid-lease round trip" `Quick
            test_detector_mid_lease_round_trip;
          Alcotest.test_case "incremental repair matches full" `Quick
            test_incremental_repair_matches_full;
          Alcotest.test_case "eviction drives index delta" `Quick
            test_eviction_drives_index_delta;
          Alcotest.test_case "query before a step still recounts" `Quick
            test_query_before_step_recounts;
          Alcotest.test_case "routing detours suspects" `Quick
            test_routing_detours_suspects;
          Alcotest.test_case "detector config validation" `Quick
            test_detector_config_validation;
          Alcotest.test_case "epoch monotone across repairs" `Quick
            test_epoch_monotone_across_repairs;
          Alcotest.test_case "restore needs this build's retransmission pacing" `Quick
            test_of_dump_pacing_constants;
          Alcotest.test_case "query on empty membership" `Quick
            test_dynamic_empty_members_query;
          Alcotest.test_case "routing skips dead hosts" `Quick
            test_query_skips_dead_hosts;
        ] );
      ( "query",
        [
          Alcotest.test_case "finds promised clusters" `Quick
            test_query_finds_promised_clusters;
          Alcotest.test_case "misses beyond promise" `Quick test_query_miss_beyond_promise;
          Alcotest.test_case "clusters satisfy predicted constraint" `Quick
            test_query_cluster_satisfies_predicted_constraint;
          Alcotest.test_case "hops bounded, path simple" `Quick test_query_hops_bounded;
          Alcotest.test_case "decentral RR <= central RR" `Quick
            test_decentral_rr_bounded_by_central;
          Alcotest.test_case "query constructors" `Quick test_query_constructors;
        ] );
      ( "clique",
        [
          Alcotest.test_case "vs brute force" `Quick test_clique_vs_brute;
          Alcotest.test_case "budget exhaustion" `Quick test_clique_budget_exhaustion;
          Alcotest.test_case "threshold graph" `Quick test_clique_threshold_matches_space;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "join and leave" `Quick test_dynamic_join_leave;
          Alcotest.test_case "join after shrinking to one member" `Quick
            test_dynamic_join_after_one_member;
          Alcotest.test_case "maintained index under churn" `Quick
            test_dynamic_maintained_index;
          Alcotest.test_case "Theorem 3.3 after churn" `Quick
            test_dynamic_theorem_3_3_after_churn;
          Alcotest.test_case "random churn invariants" `Quick
            test_dynamic_random_churn_invariants;
          Alcotest.test_case "framework add/remove" `Quick
            test_framework_add_remove_roundtrip;
          Alcotest.test_case "join after a detector eviction" `Quick
            test_join_after_eviction;
          Alcotest.test_case "evicted host rejoins" `Quick test_evicted_host_rejoins;
          Alcotest.test_case "a re-placed host's label reaches its aggregators" `Quick
            test_replaced_label_reaches_aggregators;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "index deltas are O(a)" `Quick test_alloc_index_deltas;
          Alcotest.test_case "an index holds three words a pair" `Quick
            test_alloc_index_layout;
          Alcotest.test_case "a feasible find allocates its answer" `Quick
            test_alloc_index_find;
          Alcotest.test_case "kernels box no distance" `Quick test_alloc_kernels;
          Alcotest.test_case "live query" `Quick test_alloc_live_query;
          Alcotest.test_case "find_feeder reads a x |targets| distances" `Quick
            test_alloc_find_feeder;
          Alcotest.test_case "a repropagation recounts nothing" `Quick
            test_alloc_repropagation;
        ] );
      ( "node_search",
        [
          Alcotest.test_case "brute force optimality" `Quick test_node_search_brute_force;
          Alcotest.test_case "empty targets" `Quick test_node_search_empty_targets;
        ] );
      ( "system",
        [
          Alcotest.test_case "end to end" `Quick test_system_end_to_end;
          Alcotest.test_case "exact pipeline: zero WPR on tree metric" `Quick
            test_exact_pipeline_zero_wpr;
          Alcotest.test_case "two-host system" `Quick test_minimal_system;
          Alcotest.test_case "single class" `Quick test_protocol_single_class;
          Alcotest.test_case "path starts at submission" `Quick
            test_query_path_starts_at_submission;
          Alcotest.test_case "deterministic" `Quick test_system_deterministic;
          Alcotest.test_case "feeder among members" `Quick test_find_feeder_among_members;
          Alcotest.test_case "protocol refresh_topology" `Quick
            test_protocol_refresh_topology;
          Alcotest.test_case "protocol join relinks locally" `Quick
            test_protocol_join_relinks_locally;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest (qcheck_tests @ qcheck_protocol_tests) );
    ]
