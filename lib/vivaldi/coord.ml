type t = {
  x : float;
  y : float;
}

let add a b = { x = a.x +. b.x; y = a.y +. b.y }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y }
let scale k a = { x = k *. a.x; y = k *. a.y }
let norm a = sqrt ((a.x *. a.x) +. (a.y *. a.y))
let dist a b = norm (sub a b)

let unit_towards ~from ~towards ~rng =
  let d = sub towards from in
  let n = norm d in
  if n > 1e-12 then scale (1.0 /. n) d
  else begin
    let angle = Bwc_stats.Rng.float rng (2.0 *. Float.pi) in
    { x = cos angle; y = sin angle }
  end

let random_in_box ~rng ~halfwidth =
  {
    x = Bwc_stats.Rng.uniform rng (-.halfwidth) halfwidth;
    y = Bwc_stats.Rng.uniform rng (-.halfwidth) halfwidth;
  }
