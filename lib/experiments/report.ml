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

let line s = Format.fprintf default_out "%s@." s

let f x = Printf.sprintf "%.4g" x
let f3 x = Printf.sprintf "%.3f" x
let i n = string_of_int n
let yes_no v = if v then "yes" else "no"

type 'r column = {
  header : string option;
  csv_header : string;
  cell : 'r -> string;
  csv_cell : 'r -> string;
}

let col ?csv header csv_header cell =
  { header = Some header; csv_header; cell; csv_cell = Option.value csv ~default:cell }

let csv_only csv_header cell = { header = None; csv_header; cell; csv_cell = cell }

let print ?out ~title columns rows =
  let shown = List.filter (fun c -> c.header <> None) columns in
  table ?out ~title
    ~headers:(List.filter_map (fun c -> c.header) shown)
    (List.map (fun r -> List.map (fun c -> c.cell r) shown) rows)

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

let save_csv columns rows path =
  let b = Buffer.create 4096 in
  let write_row cells =
    Buffer.add_string b (String.concat "," (List.map csv_escape cells));
    Buffer.add_char b '\n'
  in
  write_row (List.map (fun c -> c.csv_header) columns);
  List.iter (fun r -> write_row (List.map (fun c -> c.csv_cell r) columns)) rows;
  Bwc_persist.Codec.write_file path (Buffer.contents b)
