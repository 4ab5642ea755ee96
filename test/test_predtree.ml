(* Tests for bwc_predtree: the prediction tree structure, distance labels
   (the central invariant: label distance = tree distance), the Gromov
   builder, anchor-tree consistency, host removal, dynamic refresh, and
   the median ensemble. *)

module Rng = Bwc_stats.Rng
module Tree = Bwc_predtree.Tree
module Label = Bwc_predtree.Label
module Anchor = Bwc_predtree.Anchor
module Builder = Bwc_predtree.Builder
module Framework = Bwc_predtree.Framework
module Ensemble = Bwc_predtree.Ensemble
module Space = Bwc_metric.Space

(* a label's anchor chain: host ids, root child first *)
let chain (l : Label.t) = Array.to_list (Array.map (fun e -> e.Label.host) l)

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs a)

let tree_space ~seed n =
  Space.of_dmatrix (Bwc_dataset.Hier_tree.distance_matrix ~rng:(Rng.create seed) ~n ())

let noisy_space ~seed n sigma =
  let ds =
    Bwc_dataset.Noise.multiplicative ~rng:(Rng.create (seed + 1)) ~sigma
      (Bwc_dataset.Hier_tree.generate ~rng:(Rng.create seed) ~n ~name:"noisy" ())
  in
  Bwc_dataset.Dataset.metric ds

(* ----- Tree ----- *)

let test_tree_two_hosts () =
  let t = Tree.create () in
  let v0 = Tree.add_first_host t ~host:0 in
  let _v1, inner, anchor, offset =
    Tree.add_host t ~host:1 ~between:(v0, v0) ~at:0.0 ~leaf_weight:7.0
  in
  Alcotest.(check int) "anchor is root" 0 anchor;
  Alcotest.(check (float 1e-9)) "offset" 0.0 offset;
  Alcotest.(check int) "inner is root vertex" v0 inner;
  Alcotest.(check (float 1e-9)) "distance" 7.0 (Tree.host_dist t 0 1);
  Alcotest.(check bool) "structure" true (Tree.is_tree t)

(* Build the paper's Fig. 1 fragment by hand:
   a = root, b attached with edge weight 25 (t_b = a),
   d attached on the (a,b) edge at distance 10 from b with leaf 20. *)
let fig1_fragment () =
  let t = Tree.create () in
  let va = Tree.add_first_host t ~host:0 (* a *) in
  let vb, _, _, _ = Tree.add_host t ~host:1 ~between:(va, va) ~at:0.0 ~leaf_weight:25.0 in
  (* place t_d at distance 15 from a along a~b (= 10 from b) *)
  let _vd, _td, anchor_d, offset_d =
    Tree.add_host t ~host:2 ~between:(va, vb) ~at:15.0 ~leaf_weight:20.0
  in
  (t, anchor_d, offset_d)

let test_tree_fig1_distances () =
  let t, anchor_d, offset_d = fig1_fragment () in
  Alcotest.(check int) "d anchors on b" 1 anchor_d;
  Alcotest.(check (float 1e-9)) "t_d is 10 from b" 10.0 offset_d;
  Alcotest.(check (float 1e-9)) "d(a,b)" 25.0 (Tree.host_dist t 0 1);
  Alcotest.(check (float 1e-9)) "d(a,d) = 15 + 20" 35.0 (Tree.host_dist t 0 2);
  Alcotest.(check (float 1e-9)) "d(b,d) = 10 + 20" 30.0 (Tree.host_dist t 1 2)

let test_tree_clamping () =
  let t = Tree.create () in
  let va = Tree.add_first_host t ~host:0 in
  let vb, _, _, _ = Tree.add_host t ~host:1 ~between:(va, va) ~at:0.0 ~leaf_weight:10.0 in
  (* at beyond the path length clamps to the far end; negative leaf clamps to 0 *)
  let _vc, _, _, offset =
    Tree.add_host t ~host:2 ~between:(va, vb) ~at:99.0 ~leaf_weight:(-5.0)
  in
  Alcotest.(check (float 1e-9)) "clamped to b" 0.0 offset;
  Alcotest.(check (float 1e-9)) "zero leaf" 0.0 (Tree.host_dist t 1 2)

let test_tree_remove_leaf () =
  let t, _, _ = fig1_fragment () in
  let d01 = Tree.host_dist t 0 1 in
  Alcotest.(check bool) "d has no dependents: spliced" true (Tree.remove_host t ~host:2);
  Alcotest.(check bool) "d gone" false (Tree.mem t 2);
  Alcotest.(check bool) "still a tree" true (Tree.is_tree t);
  Alcotest.(check (float 1e-9)) "d(a,b) unchanged" d01 (Tree.host_dist t 0 1)

let test_tree_remove_refuses_dependents () =
  let t, _, _ = fig1_fragment () in
  (* b owns the edge d anchors on: b stays as a ghost, geometry intact *)
  Alcotest.(check bool) "b has dependents: kept" false (Tree.remove_host t ~host:1);
  Alcotest.(check bool) "b's ghost still named" true (Tree.mem t 1);
  Alcotest.(check (float 1e-9)) "d(a,d) unchanged" 35.0 (Tree.host_dist t 0 2);
  (* once d is spliced, the ghost has no dependent left *)
  Alcotest.(check bool) "d spliced" true (Tree.remove_host t ~host:2);
  Alcotest.(check bool) "ghost spliced" true (Tree.remove_host t ~host:1);
  Alcotest.(check bool) "a alone is a tree" true (Tree.is_tree t)

let test_tree_degenerate_split () =
  (* split at exactly 0 keeps distances exact (zero-weight edges) *)
  let t = Tree.create () in
  let va = Tree.add_first_host t ~host:0 in
  let vb, _, _, _ = Tree.add_host t ~host:1 ~between:(va, va) ~at:0.0 ~leaf_weight:10.0 in
  let _vc, _, _, _ = Tree.add_host t ~host:2 ~between:(va, vb) ~at:0.0 ~leaf_weight:3.0 in
  Alcotest.(check (float 1e-9)) "d(a,c)" 3.0 (Tree.host_dist t 0 2);
  Alcotest.(check (float 1e-9)) "d(b,c)" 13.0 (Tree.host_dist t 1 2);
  Alcotest.(check bool) "tree" true (Tree.is_tree t)

(* ----- Anchor ----- *)

let test_anchor_structure () =
  let a = Anchor.create () in
  Anchor.set_root a 0;
  Anchor.add a ~parent:0 1;
  Anchor.add a ~parent:1 2;
  Anchor.add a ~parent:1 3;
  Alcotest.(check int) "root" 0 (Anchor.root a);
  Alcotest.(check (list int)) "neighbors of 1" [ 0; 3; 2 ] (Anchor.neighbors a 1);
  Alcotest.(check int) "depth of 3" 2 (Anchor.depth a 3);
  Alcotest.(check int) "size" 4 (List.length (Anchor.hosts a));
  Alcotest.(check int) "max depth" 2 (Anchor.max_depth a)

(* The self-healing invariants — connectivity, no host loss, recomputed
   depths — boiled down to one walk from the root. *)
let check_anchor_tree a expected_hosts =
  Alcotest.(check (list int))
    "host set" expected_hosts
    (List.sort compare (Anchor.hosts a));
  let seen = Hashtbl.create 16 in
  let rec walk h d =
    if Hashtbl.mem seen h then Alcotest.failf "cycle through %d" h;
    Hashtbl.replace seen h ();
    Alcotest.(check int) (Printf.sprintf "depth of %d" h) d (Anchor.depth a h);
    List.iter
      (fun c ->
        match Anchor.parent a c with
        | Some p when p = h -> walk c (d + 1)
        | _ -> Alcotest.failf "parent link of %d broken" c)
      (Anchor.children a h)
  in
  walk (Anchor.root a) 0;
  Alcotest.(check int) "all hosts reachable from root"
    (List.length expected_hosts)
    (Hashtbl.length seen)

(* 0 - (1, 4); 1 - (2, 3); 4 - (5) *)
let repair_fixture () =
  let a = Anchor.create () in
  Anchor.set_root a 0;
  Anchor.add a ~parent:0 1;
  Anchor.add a ~parent:1 2;
  Anchor.add a ~parent:1 3;
  Anchor.add a ~parent:0 4;
  Anchor.add a ~parent:4 5;
  a

let test_anchor_remove_node () =
  (* interior node: orphans regraft to the grandparent *)
  let a = repair_fixture () in
  (match Anchor.remove_node a 1 with
  | Ok moves ->
      Alcotest.(check (list (pair int int)))
        "orphans to grandparent, ascending"
        [ (2, 0); (3, 0) ]
        moves
  | Error `Last_host -> Alcotest.fail "not the last host");
  check_anchor_tree a [ 0; 2; 3; 4; 5 ];
  (* leaf: no regrafts *)
  (match Anchor.remove_node a 5 with
  | Ok moves -> Alcotest.(check (list (pair int int))) "no orphans" [] moves
  | Error `Last_host -> Alcotest.fail "not the last host");
  check_anchor_tree a [ 0; 2; 3; 4 ];
  (* dead root: the smallest child is promoted, the rest regraft under it *)
  (match Anchor.remove_node a 0 with
  | Ok moves ->
      Alcotest.(check (list (pair int int)))
        "siblings under the promoted root"
        [ (3, 2); (4, 2) ]
        moves
  | Error `Last_host -> Alcotest.fail "not the last host");
  Alcotest.(check int) "smallest child promoted" 2 (Anchor.root a);
  check_anchor_tree a [ 2; 3; 4 ];
  (* the last host cannot be removed *)
  let b = Anchor.create () in
  Anchor.set_root b 7;
  (match Anchor.remove_node b 7 with
  | Error `Last_host -> ()
  | Ok _ -> Alcotest.fail "the last host must stay")

(* ----- Label ----- *)

let test_label_root () =
  Alcotest.(check (float 1e-9)) "root to root" 0.0 (Label.dist Label.root Label.root);
  Alcotest.(check int) "depth" 0 (Array.length Label.root)

let test_label_fig1 () =
  (* labels of the Fig. 1 fragment, written out by hand *)
  let label_b = Label.extend Label.root ~host:1 ~offset:0.0 ~leaf:25.0 in
  let label_d = Label.extend label_b ~host:2 ~offset:10.0 ~leaf:20.0 in
  Alcotest.(check (float 1e-9)) "d(a,b)" 25.0 (Label.dist Label.root label_b);
  Alcotest.(check (float 1e-9)) "d(a,d)" 35.0 (Label.dist Label.root label_d);
  Alcotest.(check (float 1e-9)) "d(b,d)" 30.0 (Label.dist label_b label_d);
  Alcotest.(check bool) "valid" true (Label.valid label_d);
  Alcotest.(check (list int)) "chain" [ 1; 2 ] (chain label_d)

let test_label_siblings () =
  (* two hosts anchored on the same edge at different offsets *)
  let label_b = Label.extend Label.root ~host:1 ~offset:0.0 ~leaf:25.0 in
  let label_d = Label.extend label_b ~host:2 ~offset:10.0 ~leaf:20.0 in
  let label_e = Label.extend label_b ~host:3 ~offset:18.0 ~leaf:4.0 in
  (* path d..e: 20 up to t_d, |18-10| along b's edge, 4 down to e *)
  Alcotest.(check (float 1e-9)) "sibling distance" 32.0 (Label.dist label_d label_e)

let test_label_equals_tree_distance () =
  (* the central invariant, on full framework builds over tree metrics *)
  List.iter
    (fun (seed, n, mode) ->
      let space = tree_space ~seed n in
      let fw = Framework.build ~rng:(Rng.create (seed * 7)) ~mode space in
      let tree = Framework.tree fw in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let via_label = Framework.predicted fw i j in
          let via_tree = Tree.host_dist tree i j in
          if not (feq via_label via_tree) then
            Alcotest.failf "label/tree mismatch (%d,%d): %g vs %g" i j via_label via_tree
        done
      done)
    [
      (3, 24, Framework.default_mode);
      (4, 31, Framework.centralized_mode);
      (5, 18, { Framework.base = `Random; end_search = `Exact });
    ]

let test_label_equals_tree_distance_noisy () =
  (* the invariant holds on arbitrary (non-tree) inputs too: labels always
     describe the tree that was actually built *)
  let space = noisy_space ~seed:6 25 0.5 in
  let fw = Framework.build ~rng:(Rng.create 44) space in
  let tree = Framework.tree fw in
  for i = 0 to 24 do
    for j = i + 1 to 24 do
      if not (feq (Framework.predicted fw i j) (Tree.host_dist tree i j)) then
        Alcotest.failf "mismatch at (%d,%d)" i j
    done
  done

(* ----- Builder / Framework ----- *)

let test_gromov_product () =
  let d a b = float_of_int (abs (a - b)) in
  (* (x|y)_z with points on a line: shared prefix length from z *)
  Alcotest.(check (float 1e-9)) "line" 2.0 (Builder.gromov ~d ~x:5 ~y:2 ~z:0)

let test_exact_mode_embeds_tree_metric () =
  let n = 40 in
  let space = tree_space ~seed:8 n in
  let fw = Framework.build ~rng:(Rng.create 9) ~mode:Framework.centralized_mode space in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let real = Space.dist space i j and pred = Framework.predicted fw i j in
      if not (feq ~eps:1e-6 real pred) then
        Alcotest.failf "embedding not exact at (%d,%d): %g vs %g" i j real pred
    done
  done

let test_random_base_exact_search_also_exact () =
  let n = 30 in
  let space = tree_space ~seed:10 n in
  let fw =
    Framework.build ~rng:(Rng.create 11)
      ~mode:{ Framework.base = `Random; end_search = `Exact }
      space
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (feq ~eps:1e-6 (Space.dist space i j) (Framework.predicted fw i j)) then
        Alcotest.failf "not exact at (%d,%d)" i j
    done
  done

let test_anchor_tree_consistency () =
  let n = 35 in
  let space = tree_space ~seed:12 n in
  let fw = Framework.build ~rng:(Rng.create 13) space in
  let anchor = Framework.anchor fw in
  Alcotest.(check int) "all hosts present" n (List.length (Anchor.hosts anchor));
  let order = Framework.members fw in
  Alcotest.(check int) "root is first inserted" (List.hd order) (Anchor.root anchor);
  (* every non-root host's label chain = path of anchors from below root *)
  List.iter
    (fun h ->
      let chain = chain (Framework.label fw h) in
      let rec walk parent = function
        | [] -> ()
        | x :: rest ->
            (match Anchor.parent anchor x with
            | Some p when p = parent -> ()
            | Some p -> Alcotest.failf "host %d: anchor parent %d, label says %d" x p parent
            | None -> Alcotest.failf "host %d has no anchor parent" x);
            walk x rest
      in
      if h <> Anchor.root anchor then walk (Anchor.root anchor) chain)
    order

let test_labels_valid () =
  let space = noisy_space ~seed:14 30 0.3 in
  let fw = Framework.build ~rng:(Rng.create 15) space in
  for h = 0 to 29 do
    if not (Label.valid (Framework.label fw h)) then Alcotest.failf "invalid label %d" h
  done

let test_measurement_savings () =
  let n = 60 in
  let space = tree_space ~seed:16 n in
  let fw = Framework.build ~rng:(Rng.create 17) space in
  let full = n * (n - 1) / 2 in
  Alcotest.(check bool)
    "fewer than full mesh" true
    (Framework.measurements_total fw < full)

(* ----- Ensemble ----- *)

let test_ensemble_median_between_extremes () =
  let space = noisy_space ~seed:20 20 0.3 in
  let ens = Ensemble.build ~rng:(Rng.create 21) ~size:3 space in
  let fws = Ensemble.frameworks ens in
  for i = 0 to 19 do
    for j = i + 1 to 19 do
      let preds = Array.map (fun fw -> Framework.predicted fw i j) fws in
      Array.sort compare preds;
      let m = Ensemble.predicted ens i j in
      if m < preds.(0) -. 1e-9 || m > preds.(2) +. 1e-9 then
        Alcotest.failf "median out of range at (%d,%d)" i j
    done
  done

let test_ensemble_label_dist_matches_predicted () =
  let space = noisy_space ~seed:22 18 0.2 in
  let ens = Ensemble.build ~rng:(Rng.create 23) ~size:3 space in
  for i = 0 to 17 do
    for j = i + 1 to 17 do
      let via_labels = Ensemble.label_dist (Ensemble.labels ens i) (Ensemble.labels ens j) in
      if not (feq via_labels (Ensemble.predicted ens i j)) then
        Alcotest.failf "mismatch at (%d,%d)" i j
    done
  done

let test_ensemble_label_dist_symmetric_bits () =
  (* A node that keeps its clustering space across changes copies a
     pair's distance in whichever order the pair now stands, so the two
     orders must agree bit for bit, not only within a tolerance. *)
  for seed = 1 to 6 do
    let space = noisy_space ~seed:(40 + seed) 24 (0.1 *. float_of_int seed) in
    let ens = Ensemble.build ~rng:(Rng.create seed) ~size:(1 + (seed mod 5)) space in
    for i = 0 to 23 do
      for j = 0 to 23 do
        let ab = Ensemble.label_dist (Ensemble.labels ens i) (Ensemble.labels ens j) in
        let ba = Ensemble.label_dist (Ensemble.labels ens j) (Ensemble.labels ens i) in
        if Int64.bits_of_float ab <> Int64.bits_of_float ba then
          Alcotest.failf "seed %d: d(%d,%d) = %h but d(%d,%d) = %h" seed i j ab j i ba
      done
    done
  done

let test_ensemble_improves_tail () =
  let space = noisy_space ~seed:24 60 0.3 in
  let tail ens =
    let errs = Ensemble.relative_errors ens in
    Bwc_stats.Cdf.quantile (Bwc_stats.Cdf.make errs) 0.95
  in
  let single = Ensemble.build ~rng:(Rng.create 25) ~size:1 space in
  let five = Ensemble.build ~rng:(Rng.create 25) ~size:5 space in
  Alcotest.(check bool) "p95 improves" true (tail five < tail single)

let test_ensemble_arity_mismatch () =
  let space = tree_space ~seed:26 10 in
  let e1 = Ensemble.build ~rng:(Rng.create 27) ~size:1 space in
  let e3 = Ensemble.build ~rng:(Rng.create 27) ~size:3 space in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Ensemble.label_dist (Ensemble.labels e1 0) (Ensemble.labels e3 1));
       false
     with Invalid_argument _ -> true)

let test_label_deep_chain () =
  (* a three-level chain exercised against hand-computed distances:
     root r, b (leaf 30, t_b = r), c anchored on b's edge at offset 12
     with leaf 8, d anchored on c's edge at offset 3 with leaf 5. *)
  let lb = Label.extend Label.root ~host:1 ~offset:0.0 ~leaf:30.0 in
  let lc = Label.extend lb ~host:2 ~offset:12.0 ~leaf:8.0 in
  let ld = Label.extend lc ~host:3 ~offset:3.0 ~leaf:5.0 in
  (* d(r,c): down r->t_c = 30 - 12 = 18, plus leaf 8 -> 26 *)
  Alcotest.(check (float 1e-9)) "d(r,c)" 26.0 (Label.dist Label.root lc);
  (* d(b,c): t_c at 12 from b, leaf 8 -> 20 *)
  Alcotest.(check (float 1e-9)) "d(b,c)" 20.0 (Label.dist lb lc);
  (* d(c,d): t_d at 3 from c, leaf 5 -> 8 *)
  Alcotest.(check (float 1e-9)) "d(c,d)" 8.0 (Label.dist lc ld);
  (* d(b,d): b -> t_c (12) .. along c's leaf edge from t_c (8 from c) to
     t_d (3 from c): 5 .. down to d: 5  => 12 + 5 + 5 = 22 *)
  Alcotest.(check (float 1e-9)) "d(b,d)" 22.0 (Label.dist lb ld);
  (* d(r,d): r -> t_c: 18, t_c -> t_d: 5, t_d -> d: 5 => 28 *)
  Alcotest.(check (float 1e-9)) "d(r,d)" 28.0 (Label.dist Label.root ld)

let test_ensemble_even_size_median () =
  (* even ensemble sizes average the two central values *)
  let space = tree_space ~seed:28 12 in
  let ens = Ensemble.build ~rng:(Rng.create 29) ~size:2 space in
  let fws = Ensemble.frameworks ens in
  let a = Framework.predicted fws.(0) 0 5 and b = Framework.predicted fws.(1) 0 5 in
  Alcotest.(check (float 1e-9)) "mean of two" ((a +. b) /. 2.0) (Ensemble.predicted ens 0 5)

let test_builder_measurements_positive () =
  let space = tree_space ~seed:30 25 in
  let fw = Framework.build ~rng:(Rng.create 31) space in
  Alcotest.(check bool) "positive" true (Framework.measurements_total fw > 0)

let test_dot_export () =
  let space = tree_space ~seed:32 10 in
  let fw = Framework.build ~rng:(Rng.create 33) space in
  let dot = Tree.to_dot (Framework.tree fw) in
  Alcotest.(check bool) "prediction dot" true
    (String.length dot > 0 && String.sub dot 0 5 = "graph");
  let adot = Anchor.to_dot (Framework.anchor fw) in
  Alcotest.(check bool) "anchor dot" true
    (String.length adot > 0 && String.sub adot 0 7 = "digraph")

(* ----- eviction ----- *)

let member_pairs fw f =
  let ms = Framework.members fw in
  List.iter (fun i -> List.iter (fun j -> if i < j then f i j) ms) ms

let test_first_host_leaves_restorable () =
  (* the first host owns no edge: evicting it (the overlay root) leaves a
     tree whose dump restores *)
  for seed = 1 to 20 do
    let fw = Framework.build ~rng:(Rng.create seed) (tree_space ~seed 30) in
    let first = Anchor.root (Framework.anchor fw) in
    let (_ : (int * int) list) = Framework.evict_host fw first in
    let tree = Framework.tree fw in
    let restored = Tree.of_dump (Tree.dump tree) in
    Alcotest.(check bool) "first host gone" false (Tree.mem restored first);
    member_pairs fw (fun a b ->
        if not (feq (Framework.predicted fw a b) (Tree.host_dist restored a b)) then
          Alcotest.failf "seed %d: (%d,%d) label/tree mismatch" seed a b)
  done

let test_churn_keeps_storage_bounded () =
  (* dead slots are compacted away: storage follows live geometry *)
  let n = 48 in
  let space = noisy_space ~seed:34 n 0.3 in
  let ens = Ensemble.build ~rng:(Rng.create 35) ~members:(List.init 36 Fun.id) space in
  let rng = Rng.create 36 in
  for event = 1 to 5_000 do
    let members = Array.of_list (Ensemble.members ens) in
    let outs = List.filter (fun h -> not (Ensemble.is_member ens h)) (List.init n Fun.id) in
    Ensemble.add_host ~rng ens (Rng.choose rng (Array.of_list outs));
    let (_ : (int * int) list) = Ensemble.evict_host ens (Rng.choose rng members) in
    Array.iteri
      (fun i fw ->
        let count = Tree.vertex_count (Framework.tree fw) in
        if count > 4 * n then
          Alcotest.failf "pair %d: tree %d holds %d vertex slots" event i count)
      (Ensemble.frameworks ens)
  done;
  Array.iter
    (fun fw ->
      let tree = Framework.tree fw in
      Alcotest.(check bool) "tree" true (Tree.is_tree tree);
      Alcotest.(check bool) "dump round trip" true
        (Tree.dump (Tree.of_dump (Tree.dump tree)) = Tree.dump tree))
    (Ensemble.frameworks ens)

(* ----- qcheck ----- *)

(* Random churn over hosts [0, n) of [fw]: the first host leaves first,
   then evictions and joins (fresh and returning hosts) interleave down
   to one or two members, then every host joins again.  [check] runs
   after every event, and every eviction must leave each surviving label
   bit-identical. *)
let churn fw rng n ~check =
  let event = ref 0 in
  let evict h =
    incr event;
    let before = List.map (fun m -> (m, Framework.label fw m)) (Framework.members fw) in
    let (_ : (int * int) list) = Framework.evict_host fw h in
    List.iter
      (fun (m, l) ->
        if m <> h && Slot_table.label_key l <> Slot_table.label_key (Framework.label fw m) then
          QCheck.Test.fail_reportf "event %d: evicting %d changed %d's label" !event h m)
      before;
    check (Printf.sprintf "event %d (evict %d)" !event h)
  in
  let join h =
    incr event;
    Framework.add_host ~rng fw h;
    check (Printf.sprintf "event %d (join %d)" !event h)
  in
  check "build";
  evict (Anchor.root (Framework.anchor fw));
  let floor = 1 + Rng.int rng 2 in
  while Framework.size fw > floor do
    let outs = List.filter (fun h -> not (Framework.is_member fw h)) (List.init n Fun.id) in
    if outs <> [] && Rng.int rng 3 = 0 then join (Rng.choose rng (Array.of_list outs))
    else evict (Rng.choose rng (Array.of_list (Framework.members fw)))
  done;
  for h = 0 to n - 1 do
    if not (Framework.is_member fw h) then join h
  done;
  true

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"label distance = tree distance (random builds and churn)" ~count:25
      (pair (int_range 4 30) (int_range 0 10_000))
      (fun (n, seed) ->
        let space = tree_space ~seed n in
        let fw =
          Framework.build ~rng:(Rng.create (seed + 1)) ~members:(List.init (n - (n / 4)) Fun.id)
            space
        in
        churn fw (Rng.create (seed + 4)) n ~check:(fun what ->
            let tree = Framework.tree fw in
            if not (Tree.is_tree tree) then Test.fail_reportf "%s: not a tree" what;
            member_pairs fw (fun i j ->
                if not (feq (Framework.predicted fw i j) (Tree.host_dist tree i j)) then
                  Test.fail_reportf "%s: (%d,%d) label %g vs tree %g" what i j
                    (Framework.predicted fw i j) (Tree.host_dist tree i j))));
    Test.make ~name:"exact mode is a lossless embedding of tree metrics under churn" ~count:15
      (pair (int_range 4 25) (int_range 0 10_000))
      (fun (n, seed) ->
        let space = tree_space ~seed n in
        let fw =
          Framework.build ~rng:(Rng.create (seed + 2)) ~mode:Framework.centralized_mode
            ~members:(List.init (n - (n / 4)) Fun.id) space
        in
        (* The pairs the embedding measured: the later of the two was
           placed while the other was a member and every member pair was
           measured.  A revived ghost keeps its vertex, so its distance to
           a host placed while it was away is a prediction. *)
        let measured = Hashtbl.create 64 in
        let members = ref [] and ghosts = ref [] in
        let all_measured hs =
          List.for_all (fun i -> List.for_all (fun j -> i >= j || Hashtbl.mem measured (i, j)) hs) hs
        in
        churn fw (Rng.create (seed + 5)) n ~check:(fun what ->
            let now = Framework.members fw in
            (if !members = [] then member_pairs fw (fun i j -> Hashtbl.replace measured (i, j) ())
             else
               match List.filter (fun h -> not (List.mem h !members)) now with
               | [ x ] when not (List.mem x !ghosts) ->
                   let clean = all_measured !members in
                   for m = 0 to n - 1 do
                     Hashtbl.remove measured (Int.min x m, Int.max x m);
                     if clean && List.mem m !members then
                       Hashtbl.replace measured (Int.min x m, Int.max x m) ()
                   done
               | _ -> ());
            if not (Tree.is_tree (Framework.tree fw)) then Test.fail_reportf "%s: not a tree" what;
            member_pairs fw (fun i j ->
                if Hashtbl.mem measured (i, j)
                   && not (feq ~eps:1e-6 (Space.dist space i j) (Framework.predicted fw i j))
                then
                  Test.fail_reportf "%s: (%d,%d) real %g vs predicted %g" what i j
                    (Space.dist space i j) (Framework.predicted fw i j));
            members := now;
            ghosts :=
              List.filter
                (fun h -> Tree.mem (Framework.tree fw) h && not (Framework.is_member fw h))
                (List.init n Fun.id)));
    Test.make ~name:"labels remain geometrically valid on noisy inputs" ~count:20
      (pair (int_range 4 25) (int_range 0 10_000))
      (fun (n, seed) ->
        let space = noisy_space ~seed n 0.4 in
        let fw = Framework.build ~rng:(Rng.create (seed + 3)) space in
        let ok = ref true in
        for h = 0 to n - 1 do
          if not (Label.valid (Framework.label fw h)) then ok := false
        done;
        !ok);
  ]

let () =
  Alcotest.run "bwc_predtree"
    [
      ( "tree",
        [
          Alcotest.test_case "two hosts" `Quick test_tree_two_hosts;
          Alcotest.test_case "fig.1 fragment" `Quick test_tree_fig1_distances;
          Alcotest.test_case "clamping" `Quick test_tree_clamping;
          Alcotest.test_case "remove leaf" `Quick test_tree_remove_leaf;
          Alcotest.test_case "remove refuses dependents" `Quick
            test_tree_remove_refuses_dependents;
          Alcotest.test_case "degenerate split" `Quick test_tree_degenerate_split;
        ] );
      ( "anchor",
        [
          Alcotest.test_case "structure" `Quick test_anchor_structure;
          Alcotest.test_case "remove node" `Quick test_anchor_remove_node;
        ] );
      ( "label",
        [
          Alcotest.test_case "root" `Quick test_label_root;
          Alcotest.test_case "fig.1 labels" `Quick test_label_fig1;
          Alcotest.test_case "siblings on one edge" `Quick test_label_siblings;
          Alcotest.test_case "deep chain geometry" `Quick test_label_deep_chain;
          Alcotest.test_case "label = tree distance" `Quick
            test_label_equals_tree_distance;
          Alcotest.test_case "label = tree distance (noisy)" `Quick
            test_label_equals_tree_distance_noisy;
        ] );
      ( "framework",
        [
          Alcotest.test_case "gromov product" `Quick test_gromov_product;
          Alcotest.test_case "exact mode lossless" `Quick
            test_exact_mode_embeds_tree_metric;
          Alcotest.test_case "random base + exact search lossless" `Quick
            test_random_base_exact_search_also_exact;
          Alcotest.test_case "anchor tree consistency" `Quick
            test_anchor_tree_consistency;
          Alcotest.test_case "labels valid" `Quick test_labels_valid;
          Alcotest.test_case "measurement savings" `Quick test_measurement_savings;
          Alcotest.test_case "measurements positive" `Quick
            test_builder_measurements_positive;
          Alcotest.test_case "dot export" `Quick test_dot_export;
          Alcotest.test_case "first host leaves, dump restores" `Quick
            test_first_host_leaves_restorable;
          Alcotest.test_case "churn keeps storage bounded" `Quick
            test_churn_keeps_storage_bounded;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "median bounded by members" `Quick
            test_ensemble_median_between_extremes;
          Alcotest.test_case "even-size median" `Quick test_ensemble_even_size_median;
          Alcotest.test_case "label dist = predicted" `Quick
            test_ensemble_label_dist_matches_predicted;
          Alcotest.test_case "label_dist symmetric bit for bit" `Quick
            test_ensemble_label_dist_symmetric_bits;
          Alcotest.test_case "ensemble improves tail" `Quick test_ensemble_improves_tail;
          Alcotest.test_case "arity mismatch rejected" `Quick test_ensemble_arity_mismatch;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
