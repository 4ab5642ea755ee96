(* Tests for bwc_dataset: container validation and preprocessing, CSV
   round-trips, the synthetic generators (including the calibrated
   PlanetLab-like ones), noise models, and the treeness sweep. *)

module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset
module Dmatrix = Bwc_metric.Dmatrix

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs a)

(* ----- container ----- *)

let test_make_rejects_nonpositive () =
  let bwm = Dmatrix.create 3 ~diag:Float.infinity ~off:0.0 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Dataset.make ~name:"bad" bwm);
       false
     with Invalid_argument _ -> true)

let test_bw_diagonal_infinite () =
  let ds = Dataset.make ~name:"ok" (Dmatrix.create 3 ~diag:Float.infinity ~off:10.0) in
  Alcotest.(check bool) "self" true (Float.equal (Dataset.bw ds 1 1) Float.infinity);
  Alcotest.(check (float 1e-9)) "pair" 10.0 (Dataset.bw ds 0 2)

let test_symmetrize_asymmetric () =
  let raw i j = float_of_int ((10 * i) + j + 1) in
  let ds = Dataset.symmetrize_asymmetric ~name:"sym" raw 3 in
  Alcotest.(check (float 1e-9))
    "averaged" ((raw 0 1 +. raw 1 0) /. 2.0) (Dataset.bw ds 0 1)

let test_subset_indices () =
  let raw i j = float_of_int (i + j + 1) in
  let ds = Dataset.symmetrize_asymmetric ~name:"base" raw 6 in
  let sub = Dataset.subset ds [| 5; 0; 3 |] in
  Alcotest.(check int) "size" 3 (Dataset.size sub);
  Alcotest.(check (float 1e-9)) "(0,2)=base(5,3)" (Dataset.bw ds 5 3) (Dataset.bw sub 0 2)

let test_random_subset () =
  let raw i j = float_of_int (i + j + 1) in
  let ds = Dataset.symmetrize_asymmetric ~name:"base" raw 20 in
  let sub = Dataset.random_subset ds ~rng:(Rng.create 3) 7 in
  Alcotest.(check int) "size" 7 (Dataset.size sub)

let test_percentile_range () =
  let raw i j = float_of_int (i + j) in
  let ds = Dataset.symmetrize_asymmetric ~name:"p" raw 10 in
  let lo, hi = Dataset.percentile_range ds ~lo:20.0 ~hi:80.0 in
  Alcotest.(check bool) "ordered" true (lo < hi)

let test_csv_roundtrip () =
  let ds =
    Bwc_dataset.Hier_tree.generate ~rng:(Rng.create 4) ~n:12 ~name:"csv-test" ()
  in
  let path = Filename.temp_file "bwc" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bwc_persist.Codec.write_file path (Dataset.to_csv ds);
      let ds2 =
        match Bwc_dataset.Planetlab.load ~seed:1 path with
        | Ok ds2 -> ds2
        | Error e -> Alcotest.failf "refused: %s" (Dataset.load_error_to_string e)
      in
      Alcotest.(check string) "named after the file" (Filename.basename path) ds2.Dataset.name;
      Alcotest.(check int) "size" (Dataset.size ds) (Dataset.size ds2);
      for i = 0 to Dataset.size ds - 1 do
        for j = i + 1 to Dataset.size ds - 1 do
          if not (feq ~eps:1e-5 (Dataset.bw ds i j) (Dataset.bw ds2 i j)) then
            Alcotest.failf "cell (%d,%d) mismatch" i j
        done
      done)

(* Each way a CSV file fails to be a dataset is its own error, never an
   exception. *)
let test_csv_errors () =
  let load contents =
    let path = Filename.temp_file "bwc" ".csv" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Bwc_persist.Codec.write_file path contents;
        Dataset.load_csv ~name:"bad" path)
  in
  let refused what contents ok =
    match load contents with
    | Error e when ok e -> ()
    | Error e -> Alcotest.failf "%s: refused as %s" what (Dataset.load_error_to_string e)
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  refused "nan cell" "inf,nan,1\n2,inf,3\n4,5,inf\n" (function
    | Dataset.Bad_bandwidth { i = 0; j = 1; bw } -> Float.is_nan bw
    | _ -> false);
  refused "zero cells" "inf,0\n0,inf\n" (function
    | Dataset.Bad_bandwidth { i = 0; j = 1; _ } -> true
    | _ -> false);
  refused "non-square" "inf,1,2\n1,inf\n2,3,inf\n" (function
    | Dataset.Not_square { row = 1; cells = 2; rows = 3 } -> true
    | _ -> false);
  refused "not a number" "inf,1\n\n1,fast\n" (function
    | Dataset.Not_a_number { row = 1; col = 1; cell = "fast" } -> true
    | _ -> false);
  refused "empty" " \n\n" (function Dataset.Empty -> true | _ -> false);
  (match Dataset.load_csv ~name:"missing" "/nonexistent-dir/d.csv" with
  | Error (Dataset.Unreadable msg) ->
      Alcotest.(check bool) "the caller names the file, not the message" false
        (String.starts_with ~prefix:"/nonexistent-dir/d.csv" msg)
  | _ -> Alcotest.fail "a missing file is unreadable");
  Alcotest.(check bool) "a name is not a path" true
    (Result.is_ok (Bwc_dataset.Planetlab.load ~seed:1 "hp-small"))

(* ----- generators ----- *)

let test_access_link_tree_metric () =
  let ds = Bwc_dataset.Access_link.generate ~rng:(Rng.create 5) ~n:12 () in
  Alcotest.(check bool)
    "perfect tree metric" true
    (Bwc_metric.Fourpoint.is_tree_metric ~tol:1e-6 (Dataset.metric ds))

let test_access_link_min_rule () =
  let caps = [| 10.0; 30.0; 20.0 |] in
  let ds = Bwc_dataset.Access_link.of_capacities ~name:"caps" caps in
  Alcotest.(check (float 1e-9)) "min" 10.0 (Dataset.bw ds 0 1);
  Alcotest.(check (float 1e-9)) "min" 20.0 (Dataset.bw ds 1 2)

let test_hier_tree_is_tree_metric () =
  let dm = Bwc_dataset.Hier_tree.distance_matrix ~rng:(Rng.create 6) ~n:14 () in
  Alcotest.(check bool)
    "4PC" true
    (Bwc_metric.Fourpoint.is_tree_metric ~tol:1e-6 (Bwc_metric.Space.of_dmatrix dm))

let test_hier_tree_metric_properties () =
  let dm = Bwc_dataset.Hier_tree.distance_matrix ~rng:(Rng.create 7) ~n:30 () in
  let r = Bwc_metric.Check.verify ~rng:(Rng.create 8) (Bwc_metric.Space.of_dmatrix dm) in
  Alcotest.(check bool) "metric" true (Bwc_metric.Check.is_metric r)

let test_planetlab_calibration () =
  List.iter
    (fun (target : Bwc_dataset.Planetlab.target) ->
      let target = { target with n = 100 } in
      let ds =
        Bwc_dataset.Planetlab.generate ~rng:(Rng.create 9) ~name:"cal" target
      in
      Alcotest.(check int) "size" 100 (Dataset.size ds);
      let lo, hi = Dataset.percentile_range ds ~lo:20.0 ~hi:80.0 in
      (* calibration tolerance: ratio within 15%, geometric mean within 10% *)
      let ratio = hi /. lo and want = target.Bwc_dataset.Planetlab.p80 /. target.p20 in
      if Float.abs (ratio /. want -. 1.0) > 0.15 then
        Alcotest.failf "spread off: got %.2f want %.2f" ratio want;
      let gm = sqrt (lo *. hi) and want_gm = sqrt (target.p20 *. target.p80) in
      if Float.abs (gm /. want_gm -. 1.0) > 0.10 then
        Alcotest.failf "level off: got %.2f want %.2f" gm want_gm)
    [ Bwc_dataset.Planetlab.hp_target; Bwc_dataset.Planetlab.umd_target ]

let test_planetlab_full_sizes () =
  let hp = Bwc_dataset.Planetlab.hp_like ~seed:1 in
  Alcotest.(check int) "hp hosts" 190 (Dataset.size hp);
  (* umd is larger; construct once to check the size contract *)
  let umd = Bwc_dataset.Planetlab.umd_like ~seed:1 in
  Alcotest.(check int) "umd hosts" 317 (Dataset.size umd)

let test_planetlab_deterministic () =
  let a = Bwc_dataset.Planetlab.generate ~rng:(Rng.create 3) ~name:"a"
      { Bwc_dataset.Planetlab.hp_target with n = 40 } in
  let b = Bwc_dataset.Planetlab.generate ~rng:(Rng.create 3) ~name:"b"
      { Bwc_dataset.Planetlab.hp_target with n = 40 } in
  Alcotest.(check (array (float 1e-9)))
    "same matrix"
    (Dmatrix.off_diagonal_values a.Dataset.bw)
    (Dmatrix.off_diagonal_values b.Dataset.bw)

(* ----- noise ----- *)

let test_noise_zero_sigma_identity () =
  let base = Bwc_dataset.Hier_tree.generate ~rng:(Rng.create 10) ~n:15 ~name:"b" () in
  let noisy = Bwc_dataset.Noise.multiplicative ~rng:(Rng.create 11) ~sigma:0.0 base in
  Alcotest.(check (array (float 1e-9)))
    "identity"
    (Dmatrix.off_diagonal_values base.Dataset.bw)
    (Dmatrix.off_diagonal_values noisy.Dataset.bw)

let test_host_drift_preserves_tree_metric () =
  let base = Bwc_dataset.Hier_tree.generate ~rng:(Rng.create 14) ~n:12 ~name:"b" () in
  let drifted = Bwc_dataset.Noise.host_drift ~rng:(Rng.create 15) ~amplitude:1.0 base in
  Alcotest.(check bool)
    "still a tree metric" true
    (Bwc_metric.Fourpoint.is_tree_metric ~tol:1e-6 (Dataset.metric drifted))

let test_host_drift_positive_bandwidth () =
  let base = Bwc_dataset.Hier_tree.generate ~rng:(Rng.create 16) ~n:20 ~name:"b" () in
  let drifted = Bwc_dataset.Noise.host_drift ~rng:(Rng.create 17) ~amplitude:3.0 base in
  Dmatrix.iter_pairs drifted.Dataset.bw (fun i j v ->
      if v <= 0.0 || not (Float.is_finite v) then Alcotest.failf "bad bw at (%d,%d)" i j)

(* ----- latency ----- *)

let test_latency_roundtrip () =
  let ds = Bwc_dataset.Latency.generate ~rng:(Rng.create 21) ~n:20 ~name:"lat" () in
  Alcotest.(check int) "size" 20 (Dataset.size ds);
  (* stored pseudo-bandwidth decodes back to positive milliseconds *)
  for i = 0 to 19 do
    for j = i + 1 to 19 do
      let ms = Bwc_dataset.Latency.latency_ms ds i j in
      if ms <= 0.0 || not (Float.is_finite ms) then Alcotest.fail "bad latency"
    done
  done;
  Alcotest.(check (float 1e-9)) "self latency" 0.0 (Bwc_dataset.Latency.latency_ms ds 3 3)

let test_latency_constraint_encoding () =
  (* "latency <= ms" and the pseudo-bandwidth constraint agree *)
  let ds = Bwc_dataset.Latency.generate ~rng:(Rng.create 22) ~n:15 ~name:"lat" () in
  let b = Bwc_dataset.Latency.bandwidth_constraint_for 25.0 in
  for i = 0 to 14 do
    for j = i + 1 to 14 do
      let within = Bwc_dataset.Latency.latency_ms ds i j <= 25.0 in
      let satisfies = Dataset.bw ds i j >= b in
      if within <> satisfies then Alcotest.fail "encoding mismatch"
    done
  done

let test_latency_nearly_tree_metric () =
  let ds = Bwc_dataset.Latency.generate ~rng:(Rng.create 23) ~n:40 ~name:"lat" () in
  let eps =
    Bwc_metric.Fourpoint.epsilon_avg ~samples:8000 ~rng:(Rng.create 24)
      (Dataset.metric ds)
  in
  Alcotest.(check bool) "small epsilon" true (eps < 0.05)

(* ----- treeness sweep ----- *)

let test_treeness_sweep_monotone () =
  let entries =
    Bwc_dataset.Treeness.sweep ~rng:(Rng.create 18) ~sigmas:[ 0.0; 0.2; 0.8 ] ~n:40 ()
  in
  match entries with
  | [ a; b; c ] ->
      Alcotest.(check bool) "zero noise ~ zero eps" true
        (a.Bwc_dataset.Treeness.epsilon_avg < 1e-9);
      Alcotest.(check bool) "monotone" true
        (a.Bwc_dataset.Treeness.epsilon_avg < b.Bwc_dataset.Treeness.epsilon_avg
        && b.Bwc_dataset.Treeness.epsilon_avg < c.Bwc_dataset.Treeness.epsilon_avg)
  | _ -> Alcotest.fail "expected three entries"

(* ----- qcheck ----- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"generated datasets are valid metrics" ~count:20
      (pair (int_range 6 25) (int_range 0 10_000))
      (fun (n, seed) ->
        let ds =
          Bwc_dataset.Hier_tree.generate ~rng:(Rng.create seed) ~n ~name:"q" ()
        in
        let r =
          Bwc_metric.Check.verify ~rng:(Rng.create (seed + 1)) (Dataset.metric ds)
        in
        Bwc_metric.Check.is_metric r);
    Test.make ~name:"subset of a dataset stays valid" ~count:30
      (pair (int_range 8 20) (int_range 0 10_000))
      (fun (n, seed) ->
        let rng = Rng.create seed in
        let ds = Bwc_dataset.Access_link.generate ~rng ~n () in
        let m = 2 + Rng.int rng (n - 2) in
        let sub = Dataset.random_subset ds ~rng m in
        Dataset.size sub = m);
  ]

let () =
  Alcotest.run "bwc_dataset"
    [
      ( "container",
        [
          Alcotest.test_case "rejects non-positive" `Quick test_make_rejects_nonpositive;
          Alcotest.test_case "diagonal infinite" `Quick test_bw_diagonal_infinite;
          Alcotest.test_case "symmetrize asymmetric" `Quick test_symmetrize_asymmetric;
          Alcotest.test_case "subset" `Quick test_subset_indices;
          Alcotest.test_case "random subset" `Quick test_random_subset;
          Alcotest.test_case "percentile range" `Quick test_percentile_range;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "csv errors" `Quick test_csv_errors;
        ] );
      ( "generators",
        [
          Alcotest.test_case "access-link tree metric" `Quick
            test_access_link_tree_metric;
          Alcotest.test_case "access-link min rule" `Quick test_access_link_min_rule;
          Alcotest.test_case "hier tree 4PC" `Quick test_hier_tree_is_tree_metric;
          Alcotest.test_case "hier tree metric" `Quick test_hier_tree_metric_properties;
          Alcotest.test_case "planetlab calibration" `Slow test_planetlab_calibration;
          Alcotest.test_case "planetlab sizes" `Slow test_planetlab_full_sizes;
          Alcotest.test_case "planetlab deterministic" `Quick
            test_planetlab_deterministic;
        ] );
      ( "noise",
        [
          Alcotest.test_case "zero sigma identity" `Quick test_noise_zero_sigma_identity;
          Alcotest.test_case "host drift keeps tree metric" `Quick
            test_host_drift_preserves_tree_metric;
          Alcotest.test_case "host drift keeps bw positive" `Quick
            test_host_drift_positive_bandwidth;
        ] );
      ( "latency",
        [
          Alcotest.test_case "roundtrip" `Quick test_latency_roundtrip;
          Alcotest.test_case "constraint encoding" `Quick
            test_latency_constraint_encoding;
          Alcotest.test_case "nearly tree metric" `Quick test_latency_nearly_tree_metric;
        ] );
      ( "treeness",
        [ Alcotest.test_case "sweep monotone" `Quick test_treeness_sweep_monotone ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
