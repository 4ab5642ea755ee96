type t = {
  lo : float;
  hi : float;
  counts : int array;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if hi <= lo then invalid_arg "Histogram.create: hi <= lo";
  if bins <= 0 then invalid_arg "Histogram.create: bins <= 0";
  { lo; hi; counts = Array.make bins 0; total = 0 }

let bin_of t x =
  let bins = Array.length t.counts in
  let raw = int_of_float ((x -. t.lo) /. (t.hi -. t.lo) *. float_of_int bins) in
  Stdlib.max 0 (Stdlib.min (bins - 1) raw)

let add t x =
  t.counts.(bin_of t x) <- t.counts.(bin_of t x) + 1;
  t.total <- t.total + 1

let add_all t xs = Array.iter (add t) xs

let bin_bounds t i =
  let bins = float_of_int (Array.length t.counts) in
  let w = (t.hi -. t.lo) /. bins in
  (t.lo +. (float_of_int i *. w), t.lo +. (float_of_int (i + 1) *. w))

let normalized t =
  if t.total = 0 then Array.make (Array.length t.counts) 0.0
  else Array.map (fun c -> float_of_int c /. float_of_int t.total) t.counts

let pp ppf t =
  let fracs = normalized t in
  Array.iteri
    (fun i frac ->
      let lo, hi = bin_bounds t i in
      let bar = String.make (int_of_float (frac *. 50.0)) '#' in
      Format.fprintf ppf "[%8.2f, %8.2f) %6.3f %s@." lo hi frac bar)
    fracs
