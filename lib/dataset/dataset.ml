module Dmatrix = Bwc_metric.Dmatrix

type t = {
  name : string;
  bw : Dmatrix.t;
}

let positive_finite v = Float.is_finite v && v > 0.0
let bad_bandwidth i j v = Printf.sprintf "bandwidth (%d,%d) = %g must be positive and finite" i j v

let validate bwm =
  Dmatrix.iter_pairs bwm (fun i j v ->
      if not (positive_finite v) then invalid_arg ("Dataset: " ^ bad_bandwidth i j v))

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

let subset t idx =
  make ~name:(Printf.sprintf "%s/sub%d" t.name (Array.length idx)) (Dmatrix.sub t.bw idx)

let random_subset t ~rng m =
  let idx = Bwc_stats.Rng.sample_without_replacement rng m (size t) in
  subset t idx

let bandwidth_values t = Dmatrix.off_diagonal_values t.bw
let bandwidth_cdf t = Bwc_stats.Cdf.make (bandwidth_values t)

let percentile_range t ~lo ~hi =
  let ps = Bwc_stats.Summary.percentiles (bandwidth_values t) [| lo; hi |] in
  (ps.(0), ps.(1))

let to_csv t =
  let n = size t in
  let b = Buffer.create (n * n * 11) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if j > 0 then Buffer.add_char b ',';
      if i = j then Buffer.add_string b "inf"
      else Buffer.add_string b (Printf.sprintf "%.6f" (Dmatrix.get t.bw i j))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

type load_error =
  | Unreadable of string
  | Empty
  | Not_a_number of { row : int; col : int; cell : string }
  | Not_square of { row : int; cells : int; rows : int }
  | Bad_bandwidth of { i : int; j : int; bw : float }

let load_error_to_string = function
  | Unreadable msg -> msg
  | Empty -> "no rows"
  | Not_a_number { row; col; cell } -> Printf.sprintf "cell (%d,%d) = %S is not a number" row col cell
  | Not_square { row; cells; rows } ->
      Printf.sprintf "row %d has %d cells, but the matrix has %d rows" row cells rows
  | Bad_bandwidth { i; j; bw } -> bad_bandwidth i j bw

(* the non-blank lines, each split at commas into trimmed cells *)
let read_rows path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rows = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" then
             rows := Array.of_list (List.map String.trim (String.split_on_char ',' line)) :: !rows
         done
       with End_of_file -> ());
      Array.of_list (List.rev !rows))

let load_csv ~name path =
  let exception Bad of load_error in
  let number row col cell =
    match float_of_string_opt cell with
    | Some v -> v
    | None -> raise (Bad (Not_a_number { row; col; cell }))
  in
  let parse cells =
    let n = Array.length cells in
    if n = 0 then raise (Bad Empty);
    let rows =
      Array.mapi
        (fun row r ->
          if Array.length r <> n then
            raise (Bad (Not_square { row; cells = Array.length r; rows = n }));
          Array.mapi (number row) r)
        cells
    in
    let raw i j = rows.(i).(j) in
    (* the pairs [validate] checks, in its order, so that
       [symmetrize_asymmetric] does not raise *)
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let bw = Bwc_metric.Bandwidth.symmetrize (raw i j) (raw j i) in
        if not (positive_finite bw) then raise (Bad (Bad_bandwidth { i; j; bw }))
      done
    done;
    symmetrize_asymmetric ~name raw n
  in
  match parse (read_rows path) with
  | ds -> Ok ds
  | exception Sys_error msg ->
      (* a failed open names the file in its message; the caller names
         it once *)
      let prefix = path ^ ": " in
      let n = String.length prefix in
      Error
        (Unreadable
           (if String.starts_with ~prefix msg then String.sub msg n (String.length msg - n)
            else msg))
  | exception Bad e -> Error e
