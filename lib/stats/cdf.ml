type t = { sorted : float array }

let make xs =
  if Array.length xs = 0 then invalid_arg "Cdf.make: empty sample";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  { sorted }

let size t = Array.length t.sorted

(* Number of samples <= x: index of the first element > x. *)
let count_le t x =
  let a = t.sorted in
  let n = Array.length a in
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) <= x then search (mid + 1) hi else search lo mid
    end
  in
  search 0 n

let eval t x = float_of_int (count_le t x) /. float_of_int (size t)

let quantile t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Cdf.quantile: p out of range";
  let n = size t in
  let idx = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  let idx = Stdlib.max 0 (Stdlib.min (n - 1) idx) in
  t.sorted.(idx)

let fraction_in t ~lo ~hi =
  if hi < lo then 0.0
  else begin
    let a = t.sorted in
    let n = Array.length a in
    (* first index >= lo *)
    let rec lower l h =
      if l >= h then l
      else begin
        let mid = (l + h) / 2 in
        if a.(mid) < lo then lower (mid + 1) h else lower l mid
      end
    in
    let first = lower 0 n in
    let last = count_le t hi in
    float_of_int (last - first) /. float_of_int n
  end
