let default_c = 10_000.0

let to_distance ?(c = default_c) bw =
  if bw <= 0.0 then invalid_arg "Bandwidth.to_distance: non-positive bandwidth";
  if Float.equal bw Float.infinity then 0.0 else c /. bw

let of_distance ?(c = default_c) d =
  if d < 0.0 then invalid_arg "Bandwidth.of_distance: negative distance";
  if Float.equal d 0.0 then Float.infinity else c /. d

let symmetrize fwd rev = (fwd +. rev) /. 2.0
