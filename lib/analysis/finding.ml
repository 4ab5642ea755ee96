type severity =
  | Error
  | Warning

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
  key : string option;
  witness : string list;
}

let severity_label = function Error -> "error" | Warning -> "warning"

let make ?key ?(witness = []) ~rule ~severity ~file ~line ~col ~message () =
  { rule; severity; file; line; col; message; key; witness }

let of_location ?key ?witness ~rule ~severity ~message (loc : Location.t) =
  let p = loc.loc_start in
  make ?key ?witness ~rule ~severity ~file:p.pos_fname ~line:p.pos_lnum
    ~col:(p.pos_cnum - p.pos_bol) ~message ()

(* Stable identity: whole-program findings carry a symbolic key that
   survives unrelated edits; syntactic findings fall back to their line
   anchor. *)
let stable_key t =
  match t.key with Some k -> k | None -> Printf.sprintf "L%d" t.line

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c
        else String.compare (stable_key a) (stable_key b)

let pp ppf t =
  Format.fprintf ppf "%s:%d:%d: %s [%s] %s" t.file t.line t.col
    (severity_label t.severity) t.rule t.message;
  match t.witness with
  | [] | [ _ ] -> ()
  | path ->
      Format.fprintf ppf "@\n    witness: %s" (String.concat " -> " path)
