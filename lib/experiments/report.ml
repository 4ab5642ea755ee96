let default_out = Format.std_formatter

let table ?(out = default_out) ~title ~headers rows =
  let all = headers :: rows in
  let cols = List.length headers in
  List.iter
    (fun row ->
      if List.length row <> cols then invalid_arg "Report.table: ragged row")
    rows;
  let widths = Array.make cols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)))
    all;
  let total = Array.fold_left ( + ) 0 widths + (2 * (cols - 1)) in
  Format.fprintf out "@.%s@." title;
  Format.fprintf out "%s@." (String.make (Stdlib.max total (String.length title)) '-');
  let print_row row =
    List.iteri
      (fun i cell ->
        let pad = String.make (widths.(i) - String.length cell) ' ' in
        if i > 0 then Format.fprintf out "  ";
        Format.fprintf out "%s%s" pad cell)
      row;
    Format.fprintf out "@."
  in
  print_row headers;
  List.iter print_row rows;
  Format.fprintf out "@?"

let f x = Printf.sprintf "%.4g" x
let f3 x = Printf.sprintf "%.3f" x
let i n = string_of_int n

let cdf_series ?out ~title ~resolution cdfs =
  let fractions =
    List.init resolution (fun idx ->
        float_of_int (idx + 1) /. float_of_int resolution)
  in
  let rows =
    List.map
      (fun p -> f3 p :: List.map (fun (_, cdf) -> f (Bwc_stats.Cdf.quantile cdf p)) cdfs)
      fractions
  in
  table ?out ~title ~headers:("cum.frac" :: List.map fst cdfs) rows

let csv_escape cell =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell
  in
  if not needs_quoting then cell
  else begin
    let buf = Buffer.create (String.length cell + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      cell;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let save_csv ~path ~headers rows =
  let cols = List.length headers in
  List.iter
    (fun row ->
      if List.length row <> cols then invalid_arg "Report.save_csv: ragged row")
    rows;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let write_row row =
        output_string oc (String.concat "," (List.map csv_escape row));
        output_char oc '\n'
      in
      write_row headers;
      List.iter write_row rows)
