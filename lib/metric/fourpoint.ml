let sums space w x y z =
  let d = Space.dist space in
  let s_a = d w x +. d y z in
  let s_b = d w y +. d x z in
  let s_c = d w z +. d x y in
  let lo = Float.min s_a (Float.min s_b s_c) in
  let hi = Float.max s_a (Float.max s_b s_c) in
  let mid = s_a +. s_b +. s_c -. lo -. hi in
  (lo, mid, hi)

let epsilon space w x y z =
  let s1, s2, s3 = sums space w x y z in
  let gap = s3 -. s2 in
  if gap <= 0.0 then 0.0
  else if s1 <= 0.0 then Float.infinity
  else gap /. (2.0 *. s1)

let satisfies_4pc ?(tol = 1e-9) space w x y z =
  let _, s2, s3 = sums space w x y z in
  s3 -. s2 <= tol *. Float.max 1.0 s3

let iter_quadruples n f =
  for w = 0 to n - 4 do
    for x = w + 1 to n - 3 do
      for y = x + 1 to n - 2 do
        for z = y + 1 to n - 1 do
          f w x y z
        done
      done
    done
  done

let quadruple_count n =
  if n < 4 then 0 else n * (n - 1) * (n - 2) * (n - 3) / 24

let epsilon_avg_exact space =
  let n = space.Space.n in
  if n < 4 then 0.0
  else begin
    let acc = ref 0.0 and cnt = ref 0 in
    iter_quadruples n (fun w x y z ->
        let e = epsilon space w x y z in
        if Float.is_finite e then begin
          acc := !acc +. e;
          incr cnt
        end);
    if !cnt = 0 then 0.0 else !acc /. float_of_int !cnt
  end

let epsilon_avg ?(samples = 100_000) ~rng space =
  let n = space.Space.n in
  if n < 4 then 0.0
  else if quadruple_count n <= samples then epsilon_avg_exact space
  else begin
    let acc = ref 0.0 and cnt = ref 0 in
    let drawn = ref 0 in
    while !drawn < samples do
      let q = Bwc_stats.Rng.sample_without_replacement rng 4 n in
      let e = epsilon space q.(0) q.(1) q.(2) q.(3) in
      if Float.is_finite e then begin
        acc := !acc +. e;
        incr cnt
      end;
      incr drawn
    done;
    if !cnt = 0 then 0.0 else !acc /. float_of_int !cnt
  end

let epsilon_star e = 1.0 -. (1.0 /. (1.0 +. e))

let is_tree_metric ?tol space =
  let n = space.Space.n in
  let ok = ref true in
  iter_quadruples n (fun w x y z ->
      if not (satisfies_4pc ?tol space w x y z) then ok := false);
  !ok
