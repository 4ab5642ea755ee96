module Rng = Bwc_stats.Rng
module Dmatrix = Bwc_metric.Dmatrix

type target = {
  n : int;
  p20 : float;
  p80 : float;
  noise_sigma : float;
}

let hp_target = { n = 190; p20 = 15.0; p80 = 75.0; noise_sigma = 0.05 }
let umd_target = { n = 317; p20 = 30.0; p80 = 110.0; noise_sigma = 0.04 }

(* One candidate dataset for a given access-link spread.  The rng is copied
   so that every calibration probe sees the same random stream and the
   search is a deterministic function of the seed. *)
let candidate ~rng ~name ~access_sigma target =
  let rng = Rng.copy rng in
  let params = { Hier_tree.default_params with access_sigma } in
  let base = Hier_tree.generate ~rng ~params ~n:target.n ~name () in
  if target.noise_sigma > 0.0 then
    Noise.multiplicative ~rng ~sigma:target.noise_sigma ~name base
  else base

let spread ds =
  let lo, hi = Dataset.percentile_range ds ~lo:20.0 ~hi:80.0 in
  hi /. lo

(* Uniformly scaling all bandwidths preserves the metric structure exactly
   (distances scale by 1/s), so percentile position can be fixed after the
   spread is right. *)
let rescale ~factor ~name ds =
  Dataset.make ~name (Dmatrix.map_off_diagonal ds.Dataset.bw (fun _ _ v -> v *. factor))

let generate ~rng ~name target =
  if target.n < 4 then invalid_arg "Planetlab.generate: n < 4";
  if target.p20 <= 0.0 || target.p80 <= target.p20 then
    invalid_arg "Planetlab.generate: need 0 < p20 < p80";
  let target_ratio = target.p80 /. target.p20 in
  (* Secant search on the access-link spread parameter: the p80/p20 ratio
     grows monotonically with it. *)
  let f sigma = log (spread (candidate ~rng ~name ~access_sigma:sigma target)) in
  let goal = log target_ratio in
  let rec secant s0 y0 s1 y1 iter =
    if iter = 0 || Float.abs (y1 -. goal) < 0.02 then s1
    else begin
      let slope = (y1 -. y0) /. (s1 -. s0) in
      let s2 =
        if Float.abs slope < 1e-6 then s1 *. 1.5
        else Float.max 0.05 (s1 +. ((goal -. y1) /. slope))
      in
      secant s1 y1 s2 (f s2) (iter - 1)
    end
  in
  let s0 = 0.3 and s1 = 1.0 in
  let sigma = secant s0 (f s0) s1 (f s1) 8 in
  let ds = candidate ~rng ~name ~access_sigma:sigma target in
  let lo, hi = Dataset.percentile_range ds ~lo:20.0 ~hi:80.0 in
  let factor = sqrt (target.p20 *. target.p80) /. sqrt (lo *. hi) in
  rescale ~factor ~name ds

let hp_like ~seed = generate ~rng:(Rng.create seed) ~name:"HP-PlanetLab-like" hp_target
let umd_like ~seed = generate ~rng:(Rng.create seed) ~name:"UMD-PlanetLab-like" umd_target

let named ~seed = function
  | "hp" -> Some (hp_like ~seed)
  | "umd" -> Some (umd_like ~seed)
  | "hp-small" ->
      Some
        (generate ~rng:(Rng.create seed) ~name:"HP-like-small" { hp_target with n = 120 })
  | "umd-small" ->
      Some
        (generate ~rng:(Rng.create seed) ~name:"UMD-like-small" { umd_target with n = 120 })
  | _ -> None

let load ~seed name =
  match named ~seed name with
  | Some ds -> Ok ds
  | None -> Dataset.load_csv ~name:(Filename.basename name) name
