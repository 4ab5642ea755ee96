type report = {
  non_negative : bool;
  zero_diagonal : bool;
  symmetric : bool;
  triangle_violations : float;
  triples_checked : int;
}

let triple_count n = n * (n - 1) * (n - 2)

(* relative slack on symmetry and the triangle inequality *)
let tol = 1e-9

(* spaces with more ordered triples than this are sampled *)
let max_triples = 200_000

let verify ~rng space =
  let n = space.Space.n in
  let d = Space.dist space in
  let non_negative = ref true in
  let zero_diagonal = ref true in
  let symmetric = ref true in
  for i = 0 to n - 1 do
    if Float.abs (d i i) > 0.0 then zero_diagonal := false;
    for j = i + 1 to n - 1 do
      let dij = d i j and dji = d j i in
      if dij < 0.0 then non_negative := false;
      if Float.abs (dij -. dji) > tol *. Float.max 1.0 (Float.abs dij) then symmetric := false
    done
  done;
  let violations = ref 0 and checked = ref 0 in
  let check_triple u v w =
    if u <> v && v <> w && u <> w then begin
      incr checked;
      let lhs = d u w and rhs = d u v +. d v w in
      if lhs > rhs +. (tol *. Float.max 1.0 rhs) then incr violations
    end
  in
  if n >= 3 && triple_count n <= max_triples then
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        for w = 0 to n - 1 do
          check_triple u v w
        done
      done
    done
  else if n >= 3 then
    for _ = 1 to max_triples do
      let t = Bwc_stats.Rng.sample_without_replacement rng 3 n in
      check_triple t.(0) t.(1) t.(2)
    done;
  {
    non_negative = !non_negative;
    zero_diagonal = !zero_diagonal;
    symmetric = !symmetric;
    triangle_violations =
      (if !checked = 0 then 0.0 else float_of_int !violations /. float_of_int !checked);
    triples_checked = !checked;
  }

let is_metric r =
  r.non_negative && r.zero_diagonal && r.symmetric && Float.equal r.triangle_violations 0.0

let pp ppf r =
  Format.fprintf ppf
    "non_negative=%b zero_diagonal=%b symmetric=%b triangle_violations=%.4f (over %d triples)"
    r.non_negative r.zero_diagonal r.symmetric r.triangle_violations r.triples_checked
