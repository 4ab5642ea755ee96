let of_capacities ~name caps =
  let n = Array.length caps in
  Array.iter
    (fun c ->
      if not (Float.is_finite c) || c <= 0.0 then
        invalid_arg "Access_link.of_capacities: capacities must be positive and finite")
    caps;
  let bwm =
    Bwc_metric.Dmatrix.of_fun n ~diag:Float.infinity (fun i j -> Float.min caps.(i) caps.(j))
  in
  Dataset.make ~name bwm

let generate ~rng ~n () =
  let caps = Array.init n (fun _ -> Bwc_stats.Rng.log_normal rng ~mu:4.0 ~sigma:0.9) in
  of_capacities ~name:(Printf.sprintf "access-link-%d" n) caps
