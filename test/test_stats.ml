(* Tests for bwc_stats: PRNG determinism and distribution sanity, summary
   statistics against hand-computed values, empirical CDFs, histograms,
   and the online Welford accumulator against the batch formulas. *)

module Rng = Bwc_stats.Rng
module Summary = Bwc_stats.Summary
module Cdf = Bwc_stats.Cdf
module Histogram = Bwc_stats.Histogram
module Welford = Bwc_stats.Welford

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs a)

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ----- Rng ----- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 2)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  (* Drawing from the parent must not affect the child's stream. *)
  let child_copy = Rng.copy child in
  let _ = Rng.bits64 parent in
  Alcotest.(check int64) "child unaffected" (Rng.bits64 child_copy) (Rng.bits64 child)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "Rng.int out of bounds: %d" v
  done

let test_rng_int_uniform () =
  let rng = Rng.create 5 in
  let counts = Array.make 8 0 in
  let draws = 80_000 in
  for _ = 1 to draws do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = draws / 8 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d skewed: %d vs %d" i c expected)
    counts

let test_rng_float_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "Rng.float out of bounds: %f" v
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  let mean = Summary.mean xs and sd = Summary.stddev xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.02);
  Alcotest.(check bool) "sd near 1" true (Float.abs (sd -. 1.0) < 0.02)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 17 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_rng_permutation () =
  let rng = Rng.create 19 in
  let p = Rng.permutation rng 100 in
  let seen = Array.make 100 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Alcotest.(check bool) "bijection" true (Array.for_all Fun.id seen)

let test_rng_sample_without_replacement () =
  let rng = Rng.create 23 in
  for _ = 1 to 200 do
    let s = Rng.sample_without_replacement rng 5 100 in
    Alcotest.(check int) "size" 5 (Array.length s);
    let tbl = Hashtbl.create 5 in
    Array.iter
      (fun v ->
        if v < 0 || v >= 100 then Alcotest.failf "out of range: %d" v;
        if Hashtbl.mem tbl v then Alcotest.fail "duplicate draw";
        Hashtbl.add tbl v ())
      s
  done

let test_rng_sample_covers () =
  (* sampling m close to n must still be duplicate-free and in range *)
  let rng = Rng.create 29 in
  let s = Rng.sample_without_replacement rng 99 100 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Array.iteri (fun i v -> if i > 0 && sorted.(i - 1) = v then Alcotest.fail "dup") sorted

let test_log_normal_positive () =
  let rng = Rng.create 31 in
  for _ = 1 to 1000 do
    if Rng.log_normal rng ~mu:2.0 ~sigma:1.0 <= 0.0 then Alcotest.fail "non-positive"
  done

(* ----- Summary ----- *)

let test_summary_mean () = check_float "mean" 2.5 (Summary.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_summary_variance () =
  (* var of 2,4,4,4,5,5,7,9 = 32/7 (unbiased) *)
  check_float "variance" (32.0 /. 7.0)
    (Summary.variance [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |])

let test_summary_percentile_interp () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (Summary.percentile xs 0.0);
  check_float "p100" 40.0 (Summary.percentile xs 100.0);
  check_float "p50" 25.0 (Summary.percentile xs 50.0);
  (* rank = 1/3 between 20 and 30 at p = 100/3+... rank=0.75*3=2.25 -> 32.5 *)
  check_float "p75" 32.5 (Summary.percentile xs 75.0)

let test_summary_single () =
  check_float "singleton percentile" 5.0 (Summary.percentile [| 5.0 |] 73.0)

let test_summary_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Summary: empty sample") (fun () ->
      ignore (Summary.mean [||]))

let test_summary_digest () =
  match Summary.of_array [| 1.0; 2.0; 3.0 |] with
  | None -> Alcotest.fail "expected digest"
  | Some d ->
      Alcotest.(check int) "count" 3 d.Summary.count;
      check_float "min" 1.0 d.Summary.min;
      check_float "max" 3.0 d.Summary.max

(* ----- Cdf ----- *)

let test_cdf_eval () =
  let cdf = Cdf.make [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "below" 0.0 (Cdf.eval cdf 0.5);
  check_float "at 2" 0.4 (Cdf.eval cdf 2.0);
  check_float "mid" 0.4 (Cdf.eval cdf 2.5);
  check_float "top" 1.0 (Cdf.eval cdf 5.0);
  check_float "above" 1.0 (Cdf.eval cdf 99.0)

let test_cdf_quantile () =
  let cdf = Cdf.make [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "q0.2" 1.0 (Cdf.quantile cdf 0.2);
  check_float "q0.21" 2.0 (Cdf.quantile cdf 0.21);
  check_float "q1" 5.0 (Cdf.quantile cdf 1.0);
  check_float "q0" 1.0 (Cdf.quantile cdf 0.0)

let test_cdf_fraction_in () =
  let cdf = Cdf.make [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "middle band" 0.6 (Cdf.fraction_in cdf ~lo:2.0 ~hi:4.0);
  check_float "empty band" 0.0 (Cdf.fraction_in cdf ~lo:5.5 ~hi:9.0);
  check_float "inverted" 0.0 (Cdf.fraction_in cdf ~lo:4.0 ~hi:2.0)

let test_cdf_quantile_eval_inverse () =
  (* quantile is the generalised inverse of eval *)
  let rng = Rng.create 37 in
  let xs = Array.init 200 (fun _ -> Rng.float rng 100.0) in
  let cdf = Cdf.make xs in
  List.iter
    (fun p ->
      let v = Cdf.quantile cdf p in
      if Cdf.eval cdf v < p -. 1e-9 then Alcotest.failf "eval(quantile %f) too small" p)
    [ 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ]

(* ----- Histogram ----- *)

let test_histogram_basic () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  Histogram.add_all h [| 0.5; 1.0; 3.0; 9.9; 100.0; -5.0 |];
  let fracs = Histogram.normalized h in
  check_float "first bin (clamped -5, 0.5, 1.0)" (3.0 /. 6.0) fracs.(0);
  check_float "last bin (9.9, clamped 100)" (2.0 /. 6.0) fracs.(4);
  let lo, hi = Histogram.bin_bounds h 1 in
  check_float "bin lo" 2.0 lo;
  check_float "bin hi" 4.0 hi

let test_histogram_normalized () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:2 in
  Histogram.add h 0.25;
  Histogram.add h 0.75;
  Histogram.add h 0.8;
  let fracs = Histogram.normalized h in
  check_float "low" (1.0 /. 3.0) fracs.(0);
  check_float "high" (2.0 /. 3.0) fracs.(1)

(* ----- Welford ----- *)

let test_welford_matches_batch () =
  let rng = Rng.create 41 in
  let xs = Array.init 500 (fun _ -> Rng.float rng 10.0) in
  let w = Welford.create () in
  Array.iter (Welford.add w) xs;
  check_float ~eps:1e-9 "mean" (Summary.mean xs) (Welford.mean w);
  check_float ~eps:1e-9 "variance" (Summary.variance xs) (Welford.variance w)

let test_welford_merge () =
  let rng = Rng.create 43 in
  let xs = Array.init 300 (fun _ -> Rng.float rng 5.0) in
  let a = Welford.create () and b = Welford.create () in
  Array.iteri (fun i x -> Welford.add (if i < 120 then a else b) x) xs;
  let m = Welford.merge a b in
  check_float ~eps:1e-9 "merged mean" (Summary.mean xs) (Welford.mean m);
  check_float ~eps:1e-9 "merged var" (Summary.variance xs) (Welford.variance m)

(* ----- qcheck properties ----- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"percentile monotone in p" ~count:200
      (pair (array_of_size (Gen.int_range 2 50) (float_range 0.0 1000.0))
         (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
      (fun (xs, (p1, p2)) ->
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        Summary.percentile xs lo <= Summary.percentile xs hi +. 1e-9);
    Test.make ~name:"cdf eval in [0,1] and monotone" ~count:200
      (pair (array_of_size (Gen.int_range 1 60) (float_range (-100.0) 100.0))
         (pair (float_range (-200.0) 200.0) (float_range (-200.0) 200.0)))
      (fun (xs, (x1, x2)) ->
        let cdf = Cdf.make xs in
        let lo = Float.min x1 x2 and hi = Float.max x1 x2 in
        let a = Cdf.eval cdf lo and b = Cdf.eval cdf hi in
        0.0 <= a && a <= b && b <= 1.0);
    Test.make ~name:"welford equals batch" ~count:100
      (array_of_size (Gen.int_range 2 100) (float_range (-50.0) 50.0))
      (fun xs ->
        let w = Welford.create () in
        Array.iter (Welford.add w) xs;
        Float.abs (Welford.mean w -. Summary.mean xs) < 1e-6
        && Float.abs (Welford.variance w -. Summary.variance xs) < 1e-6);
  ]

let () =
  Alcotest.run "bwc_stats"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "permutation bijective" `Quick test_rng_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "sample near-full" `Quick test_rng_sample_covers;
          Alcotest.test_case "log-normal positive" `Quick test_log_normal_positive;
        ] );
      ( "summary",
        [
          Alcotest.test_case "mean" `Quick test_summary_mean;
          Alcotest.test_case "variance" `Quick test_summary_variance;
          Alcotest.test_case "percentile interpolation" `Quick
            test_summary_percentile_interp;
          Alcotest.test_case "singleton" `Quick test_summary_single;
          Alcotest.test_case "empty raises" `Quick test_summary_empty;
          Alcotest.test_case "digest" `Quick test_summary_digest;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "eval" `Quick test_cdf_eval;
          Alcotest.test_case "quantile" `Quick test_cdf_quantile;
          Alcotest.test_case "fraction_in" `Quick test_cdf_fraction_in;
          Alcotest.test_case "quantile inverts eval" `Quick test_cdf_quantile_eval_inverse;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning and clamping" `Quick test_histogram_basic;
          Alcotest.test_case "normalized" `Quick test_histogram_normalized;
        ] );
      ( "welford",
        [
          Alcotest.test_case "matches batch" `Quick test_welford_matches_batch;
          Alcotest.test_case "merge" `Quick test_welford_merge;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
