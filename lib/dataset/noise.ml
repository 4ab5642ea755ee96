module Rng = Bwc_stats.Rng
module Dmatrix = Bwc_metric.Dmatrix

let multiplicative ~rng ~sigma ?name ds =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s+noise%.2f" ds.Dataset.name sigma
  in
  let bwm =
    Dmatrix.map_off_diagonal ds.Dataset.bw (fun _ _ v -> v *. exp (sigma *. Rng.gaussian rng))
  in
  Dataset.make ~name bwm

let host_drift ~rng ~amplitude ?name ds =
  if amplitude < 0.0 then invalid_arg "Noise.host_drift: negative amplitude";
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s+hostdrift%.2f" ds.Dataset.name amplitude
  in
  let c = Bwc_metric.Bandwidth.default_c in
  let n = Dataset.size ds in
  let dist i j = c /. Dataset.bw ds i j in
  let all = Array.make (n * (n - 1) / 2) 0.0 in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      all.(!pos) <- dist i j;
      incr pos
    done
  done;
  let scale = amplitude *. Bwc_stats.Summary.median all /. 4.0 in
  (* Clamp each host's negative drift to half its closest distance, so
     perturbed distances stay strictly positive. *)
  let closest = Array.make n Float.infinity in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then closest.(i) <- Float.min closest.(i) (dist i j)
    done
  done;
  let drift =
    Array.init n (fun i ->
        let a = Rng.uniform rng (-.scale) scale in
        Float.max a (-.(closest.(i) /. 2.0 -. 1e-9)))
  in
  let bwm =
    Bwc_metric.Dmatrix.of_fun n ~diag:Float.infinity (fun i j ->
        c /. (dist i j +. drift.(i) +. drift.(j)))
  in
  Dataset.make ~name bwm
