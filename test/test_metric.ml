(* Tests for bwc_metric: symmetric matrices, the rational bandwidth
   transform, the four-point condition / treeness statistics, and the
   metric-property checker. *)

module Rng = Bwc_stats.Rng
module Dmatrix = Bwc_metric.Dmatrix
module Space = Bwc_metric.Space
module Bandwidth = Bwc_metric.Bandwidth
module Fourpoint = Bwc_metric.Fourpoint
module Check = Bwc_metric.Check

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs a)

let check_float ?eps msg expected actual =
  if not (feq ?eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ----- Dmatrix ----- *)

let test_dmatrix_symmetry () =
  let m = Dmatrix.create 5 ~diag:0.0 ~off:1.0 in
  Dmatrix.set m 1 3 42.0;
  check_float "set propagates" 42.0 (Dmatrix.get m 3 1);
  check_float "diag" 0.0 (Dmatrix.get m 2 2)

let test_dmatrix_of_fun () =
  let m = Dmatrix.of_fun 4 ~diag:0.0 (fun i j -> float_of_int ((10 * i) + j)) in
  check_float "(1,2)" 12.0 (Dmatrix.get m 1 2);
  check_float "(2,1) same cell" 12.0 (Dmatrix.get m 2 1)

let test_dmatrix_sub () =
  let m = Dmatrix.of_fun 5 ~diag:0.0 (fun i j -> float_of_int (i + j)) in
  let s = Dmatrix.sub m [| 4; 0; 2 |] in
  Alcotest.(check int) "size" 3 (Dmatrix.size s);
  check_float "(0,1) = m(4,0)" 4.0 (Dmatrix.get s 0 1);
  check_float "(1,2) = m(0,2)" 2.0 (Dmatrix.get s 1 2)

let test_dmatrix_sub_rejects_dup () =
  let m = Dmatrix.create 3 ~diag:0.0 ~off:1.0 in
  Alcotest.check_raises "dup" (Invalid_argument "Dmatrix.sub: duplicate index") (fun () ->
      ignore (Dmatrix.sub m [| 1; 1 |]))

let test_dmatrix_off_diagonal_values () =
  let m = Dmatrix.of_fun 3 ~diag:0.0 (fun i j -> float_of_int (i + j)) in
  Alcotest.(check (array (float 1e-9)))
    "upper triangle" [| 1.0; 2.0; 3.0 |]
    (Dmatrix.off_diagonal_values m)

let test_dmatrix_iter_pairs () =
  let m = Dmatrix.of_fun 4 ~diag:0.0 (fun i j -> float_of_int (i * j)) in
  let count = ref 0 in
  Dmatrix.iter_pairs m (fun i j v ->
      incr count;
      if i >= j then Alcotest.fail "pair order";
      check_float "value" (float_of_int (i * j)) v);
  Alcotest.(check int) "pair count" 6 !count

let test_dmatrix_diameter () =
  let m = Dmatrix.of_fun 5 ~diag:0.0 (fun i j -> float_of_int (i + j)) in
  check_float "diam {0,1,4}" 5.0 (Dmatrix.diameter_of m [ 0; 1; 4 ]);
  check_float "diam singleton" 0.0 (Dmatrix.diameter_of m [ 2 ])

let test_dmatrix_map_off_diagonal () =
  let m = Dmatrix.of_fun 3 ~diag:7.0 (fun _ _ -> 2.0) in
  let doubled = Dmatrix.map_off_diagonal m (fun _ _ v -> v *. 2.0) in
  check_float "off" 4.0 (Dmatrix.get doubled 0 1);
  check_float "diag untouched" 7.0 (Dmatrix.get doubled 1 1);
  check_float "original intact" 2.0 (Dmatrix.get m 0 1)

(* ----- Bandwidth ----- *)

let test_bandwidth_roundtrip () =
  check_float "to" 100.0 (Bandwidth.to_distance ~c:1000.0 10.0);
  check_float "of" 10.0 (Bandwidth.of_distance ~c:1000.0 100.0);
  check_float "self distance" 0.0 (Bandwidth.to_distance Float.infinity);
  Alcotest.(check bool)
    "self bandwidth" true
    (Float.equal (Bandwidth.of_distance 0.0) Float.infinity)

let test_bandwidth_paper_example () =
  (* Fig. 1: with C = 100 and d_T(b,c) = 23, BW_T(b,c) ~ 4.3; the text's
     "77" is 100 - 23 under the linear transform; both are exercised. *)
  check_float "rational" (100.0 /. 23.0) (Bandwidth.of_distance ~c:100.0 23.0);
  check_float "linear" 77.0 (Bandwidth.linear_of_distance ~c:100.0 23.0)

let test_bandwidth_rejects () =
  Alcotest.check_raises "zero bw"
    (Invalid_argument "Bandwidth.to_distance: non-positive bandwidth") (fun () ->
      ignore (Bandwidth.to_distance 0.0))

let test_symmetrize () = check_float "avg" 15.0 (Bandwidth.symmetrize 10.0 20.0)

(* ----- Space ----- *)

let test_space_restrict () =
  let m = Dmatrix.of_fun 5 ~diag:0.0 (fun i j -> float_of_int (i + j)) in
  let s = Space.restrict (Space.of_dmatrix m) [| 3; 1 |] in
  Alcotest.(check int) "n" 2 s.Space.n;
  check_float "dist" 4.0 (s.Space.dist 0 1)

let test_space_of_bandwidth () =
  let bw = Dmatrix.of_fun 3 ~diag:Float.infinity (fun _ _ -> 50.0) in
  let s = Space.of_bandwidth ~c:100.0 bw in
  check_float "transform" 2.0 (s.Space.dist 0 1);
  check_float "diag" 0.0 (s.Space.dist 1 1)

let test_space_cached_consistent () =
  let calls = ref 0 in
  let s =
    Space.make ~n:4 ~dist:(fun i j ->
        incr calls;
        float_of_int (abs (i - j)))
  in
  let cached = Space.cached s in
  let before = !calls in
  check_float "value" 2.0 (cached.Space.dist 1 3);
  check_float "value" 2.0 (cached.Space.dist 3 1);
  Alcotest.(check int) "no further evaluation" before !calls

(* ----- Fourpoint ----- *)

let star_space weights =
  (* hub-and-spoke: d(i,j) = w_i + w_j -- a canonical tree metric *)
  let n = Array.length weights in
  Space.make ~n ~dist:(fun i j -> if i = j then 0.0 else weights.(i) +. weights.(j))

let test_fourpoint_star_is_tree () =
  let s = star_space [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  Alcotest.(check bool) "4PC" true (Fourpoint.is_tree_metric s);
  check_float "eps exact" 0.0 (Fourpoint.epsilon_avg_exact s)

let test_fourpoint_min_model_is_tree () =
  (* BW(u,v) = min of capacities => tree metric (Sec. II-C) *)
  let caps = [| 10.0; 20.0; 5.0; 80.0; 40.0; 15.0 |] in
  let s =
    Space.make ~n:6 ~dist:(fun i j ->
        if i = j then 0.0 else 100.0 /. Float.min caps.(i) caps.(j))
  in
  Alcotest.(check bool) "4PC" true (Fourpoint.is_tree_metric s)

let test_fourpoint_square_violates () =
  (* the unit square in the plane violates 4PC: the two diagonals pair up *)
  let pts = [| (0.0, 0.0); (1.0, 0.0); (1.0, 1.0); (0.0, 1.0) |] in
  let s =
    Space.make ~n:4 ~dist:(fun i j ->
        let xi, yi = pts.(i) and xj, yj = pts.(j) in
        sqrt (((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0)))
  in
  Alcotest.(check bool) "violates" false (Fourpoint.is_tree_metric s);
  Alcotest.(check bool) "eps > 0" true (Fourpoint.epsilon s 0 1 2 3 > 0.0)

let test_fourpoint_epsilon_value () =
  (* square: sums are 2, 2*sqrt2, 2*sqrt2... sides pair to 2; diagonal
     pairing 2*sqrt2. s1=2, s2=2, s3=2sqrt2: eps = (2sqrt2-2)/(2*2) *)
  let pts = [| (0.0, 0.0); (1.0, 0.0); (1.0, 1.0); (0.0, 1.0) |] in
  let s =
    Space.make ~n:4 ~dist:(fun i j ->
        let xi, yi = pts.(i) and xj, yj = pts.(j) in
        sqrt (((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0)))
  in
  check_float "epsilon" (((2.0 *. sqrt 2.0) -. 2.0) /. 4.0) (Fourpoint.epsilon s 0 1 2 3)

let test_fourpoint_hier_tree_eps_zero () =
  let rng = Rng.create 5 in
  let dm = Bwc_dataset.Hier_tree.distance_matrix ~rng ~n:30 () in
  let s = Space.of_dmatrix dm in
  Alcotest.(check bool)
    "sampled eps ~ 0" true
    (Fourpoint.epsilon_avg ~samples:5000 ~rng s < 1e-9)

let test_fourpoint_noise_increases_eps () =
  let rng = Rng.create 6 in
  let base = Bwc_dataset.Hier_tree.generate ~rng ~n:40 ~name:"base" () in
  let eps_at sigma =
    let ds =
      if Float.equal sigma 0.0 then base
      else Bwc_dataset.Noise.multiplicative ~rng:(Rng.create 7) ~sigma base
    in
    Fourpoint.epsilon_avg ~samples:8000 ~rng:(Rng.create 8) (Bwc_dataset.Dataset.metric ds)
  in
  let e0 = eps_at 0.0 and e1 = eps_at 0.1 and e2 = eps_at 0.4 in
  Alcotest.(check bool) "monotone" true (e0 < e1 && e1 < e2)

let test_epsilon_star () =
  check_float "at 0" 0.0 (Fourpoint.epsilon_star 0.0);
  check_float "at 1" 0.5 (Fourpoint.epsilon_star 1.0);
  Alcotest.(check bool) "bounded" true (Fourpoint.epsilon_star 1e9 < 1.0)

(* ----- Check ----- *)

let test_check_valid_metric () =
  let rng = Rng.create 9 in
  let dm = Bwc_dataset.Hier_tree.distance_matrix ~rng ~n:25 () in
  let r = Check.verify ~rng (Space.of_dmatrix dm) in
  Alcotest.(check bool) "is metric" true (Check.is_metric r)

let test_check_triangle_violation () =
  let m = Dmatrix.create 3 ~diag:0.0 ~off:1.0 in
  Dmatrix.set m 0 2 5.0;
  (* d(0,2)=5 > d(0,1)+d(1,2)=2 *)
  let r = Check.verify ~rng:(Rng.create 1) (Space.of_dmatrix m) in
  Alcotest.(check bool) "violations found" true (r.Check.triangle_violations > 0.0)

let test_check_negative () =
  let m = Dmatrix.create 3 ~diag:0.0 ~off:(-1.0) in
  let r = Check.verify ~rng:(Rng.create 1) (Space.of_dmatrix m) in
  Alcotest.(check bool) "negative flagged" false r.Check.non_negative

(* ----- qcheck ----- *)

let qcheck_tests =
  let open QCheck in
  let pos_float = float_range 0.1 1000.0 in
  [
    Test.make ~name:"rational transform roundtrips" ~count:500 pos_float (fun bw ->
        feq ~eps:1e-9 bw (Bandwidth.of_distance (Bandwidth.to_distance bw)));
    Test.make ~name:"star metrics satisfy 4PC" ~count:100
      (array_of_size (Gen.int_range 4 8) pos_float)
      (fun weights -> Fourpoint.is_tree_metric ~tol:1e-6 (star_space weights));
    Test.make ~name:"dmatrix sub preserves entries" ~count:100
      (pair (int_range 3 10) (int_range 0 1000))
      (fun (n, seed) ->
        let rng = Rng.create seed in
        let m = Dmatrix.of_fun n ~diag:0.0 (fun _ _ -> Rng.float rng 10.0) in
        let idx = Rng.sample_without_replacement rng (n - 1) n in
        let s = Dmatrix.sub m idx in
        let ok = ref true in
        for a = 0 to n - 2 do
          for b = 0 to n - 2 do
            if not (feq (Dmatrix.get s a b) (Dmatrix.get m idx.(a) idx.(b))) then
              ok := false
          done
        done;
        !ok);
  ]

let () =
  Alcotest.run "bwc_metric"
    [
      ( "dmatrix",
        [
          Alcotest.test_case "symmetry" `Quick test_dmatrix_symmetry;
          Alcotest.test_case "of_fun" `Quick test_dmatrix_of_fun;
          Alcotest.test_case "sub" `Quick test_dmatrix_sub;
          Alcotest.test_case "sub rejects dup" `Quick test_dmatrix_sub_rejects_dup;
          Alcotest.test_case "off-diagonal values" `Quick test_dmatrix_off_diagonal_values;
          Alcotest.test_case "iter pairs" `Quick test_dmatrix_iter_pairs;
          Alcotest.test_case "diameter" `Quick test_dmatrix_diameter;
          Alcotest.test_case "map off-diagonal" `Quick test_dmatrix_map_off_diagonal;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "roundtrip" `Quick test_bandwidth_roundtrip;
          Alcotest.test_case "paper example" `Quick test_bandwidth_paper_example;
          Alcotest.test_case "rejects non-positive" `Quick test_bandwidth_rejects;
          Alcotest.test_case "symmetrize" `Quick test_symmetrize;
        ] );
      ( "space",
        [
          Alcotest.test_case "restrict" `Quick test_space_restrict;
          Alcotest.test_case "of_bandwidth" `Quick test_space_of_bandwidth;
          Alcotest.test_case "cached" `Quick test_space_cached_consistent;
        ] );
      ( "fourpoint",
        [
          Alcotest.test_case "star is tree metric" `Quick test_fourpoint_star_is_tree;
          Alcotest.test_case "min model is tree metric" `Quick
            test_fourpoint_min_model_is_tree;
          Alcotest.test_case "square violates 4PC" `Quick test_fourpoint_square_violates;
          Alcotest.test_case "epsilon value" `Quick test_fourpoint_epsilon_value;
          Alcotest.test_case "hier tree eps = 0" `Quick test_fourpoint_hier_tree_eps_zero;
          Alcotest.test_case "noise raises eps" `Quick test_fourpoint_noise_increases_eps;
          Alcotest.test_case "epsilon_star" `Quick test_epsilon_star;
        ] );
      ( "check",
        [
          Alcotest.test_case "valid metric" `Quick test_check_valid_metric;
          Alcotest.test_case "triangle violation" `Quick test_check_triangle_violation;
          Alcotest.test_case "negative distance" `Quick test_check_negative;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
