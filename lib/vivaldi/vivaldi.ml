module Rng = Bwc_stats.Rng
module Space = Bwc_metric.Space

type params = {
  cc : float;
  ce : float;
  rounds : int;
  samples_per_round : int;
}

let default_params = { cc = 0.25; ce = 0.25; rounds = 100; samples_per_round = 8 }

type t = {
  pos : Coord.t array;
  err : float array;
}

(* One Vivaldi sample: node [i] observes measured distance [rtt] to node
   [j] at coordinate [xj] with confidence error [ej]. *)
let sample ~rng ~params t i j rtt =
  let xi = t.pos.(i) and xj = t.pos.(j) in
  let ei = t.err.(i) and ej = t.err.(j) in
  let w = if ei +. ej > 0.0 then ei /. (ei +. ej) else 0.5 in
  let dist = Coord.dist xi xj in
  let es = if rtt > 0.0 then Float.abs (dist -. rtt) /. rtt else 0.0 in
  t.err.(i) <- Float.min 1.0 ((es *. params.ce *. w) +. (ei *. (1.0 -. (params.ce *. w))));
  let delta = params.cc *. w in
  let dir = Coord.unit_towards ~from:xj ~towards:xi ~rng in
  t.pos.(i) <- Coord.add xi (Coord.scale (delta *. (rtt -. dist)) dir)

let embed ~rng ?(params = default_params) space =
  let n = space.Space.n in
  let t =
    {
      pos = Array.init n (fun _ -> Coord.random_in_box ~rng ~halfwidth:1.0);
      err = Array.make n 1.0;
    }
  in
  if n > 1 then
    for _ = 1 to params.rounds do
      let order = Rng.permutation rng n in
      Array.iter
        (fun i ->
          for _ = 1 to params.samples_per_round do
            let j = Rng.int rng (n - 1) in
            let j = if j >= i then j + 1 else j in
            sample ~rng ~params t i j (Space.dist space i j)
          done)
        order
    done;
  t

let coords t = Array.copy t.pos
let predicted t i j = if i = j then 0.0 else Coord.dist t.pos.(i) t.pos.(j)

let predicted_bw ?c t i j =
  if i = j then Float.infinity
  else Bwc_metric.Bandwidth.of_distance ?c (Float.max 1e-9 (predicted t i j))

let relative_errors ?c t measured =
  let n = measured.Space.n in
  let out = Array.make (n * (n - 1) / 2) 0.0 in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let real = Bwc_metric.Bandwidth.of_distance ?c (Space.dist measured i j) in
      let pred = predicted_bw ?c t i j in
      out.(!pos) <- Float.abs (real -. pred) /. real;
      incr pos
    done
  done;
  out

let mean_fit_error t measured =
  let n = measured.Space.n in
  let acc = ref 0.0 and cnt = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let real = Space.dist measured i j in
      if real > 0.0 then begin
        acc := !acc +. (Float.abs (predicted t i j -. real) /. real);
        incr cnt
      end
    done
  done;
  if !cnt = 0 then 0.0 else !acc /. float_of_int !cnt
