let check xs = if Array.length xs = 0 then invalid_arg "Summary: empty sample"

let mean xs =
  check xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let min xs =
  check xs;
  Array.fold_left Stdlib.min xs.(0) xs

let max xs =
  check xs;
  Array.fold_left Stdlib.max xs.(0) xs

let percentile xs p =
  check xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs 50.0

type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let of_array xs =
  if Array.length xs = 0 then None
  else
    Some
      {
        count = Array.length xs;
        mean = mean xs;
        stddev = stddev xs;
        min = min xs;
        max = max xs;
        p50 = percentile xs 50.0;
        p90 = percentile xs 90.0;
        p99 = percentile xs 99.0;
      }

let pp ppf t =
  Format.fprintf ppf
    "n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g"
    t.count t.mean t.stddev t.min t.p50 t.p90 t.p99 t.max
