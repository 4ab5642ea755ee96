module Dmatrix = Bwc_metric.Dmatrix

type t = {
  name : string;
  bw : Dmatrix.t;
}

let validate bwm =
  Dmatrix.iter_pairs bwm (fun i j v ->
      if not (Float.is_finite v) || v <= 0.0 then
        invalid_arg
          (Printf.sprintf "Dataset: bandwidth (%d,%d) = %g must be positive and finite" i j v))

let make ~name bwm =
  validate bwm;
  { name; bw = bwm }

let size t = Dmatrix.size t.bw
let bw t i j = if i = j then Float.infinity else Dmatrix.get t.bw i j
let metric ?c t = Bwc_metric.Space.of_bandwidth ?c t.bw

let symmetrize_asymmetric ~name raw n =
  let bwm =
    Dmatrix.of_fun n ~diag:Float.infinity (fun i j ->
        Bwc_metric.Bandwidth.symmetrize (raw i j) (raw j i))
  in
  make ~name bwm

let subset t ?name idx =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s/sub%d" t.name (Array.length idx)
  in
  make ~name (Dmatrix.sub t.bw idx)

let random_subset t ~rng m =
  let idx = Bwc_stats.Rng.sample_without_replacement rng m (size t) in
  subset t idx

let bandwidth_values t = Dmatrix.off_diagonal_values t.bw
let bandwidth_cdf t = Bwc_stats.Cdf.make (bandwidth_values t)

let percentile_range t ~lo ~hi =
  let ps = Bwc_stats.Summary.percentiles (bandwidth_values t) [| lo; hi |] in
  (ps.(0), ps.(1))

let save_csv t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let n = size t in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if j > 0 then output_char oc ',';
          if i = j then output_string oc "inf"
          else output_string oc (Printf.sprintf "%.6f" (Dmatrix.get t.bw i j))
        done;
        output_char oc '\n'
      done)

let load_csv ~name path =
  let ic = open_in path in
  let rows =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rows = ref [] in
        (try
           while true do
             let line = String.trim (input_line ic) in
             if line <> "" then begin
               let cells = String.split_on_char ',' line in
               let parse s =
                 let s = String.trim s in
                 if s = "inf" then Float.infinity else float_of_string s
               in
               rows := Array.of_list (List.map parse cells) :: !rows
             end
           done
         with End_of_file -> ());
        Array.of_list (List.rev !rows))
  in
  let n = Array.length rows in
  if n = 0 then failwith "Dataset.load_csv: empty file";
  Array.iter
    (fun r -> if Array.length r <> n then failwith "Dataset.load_csv: non-square matrix")
    rows;
  symmetrize_asymmetric ~name (fun i j -> rows.(i).(j)) n
