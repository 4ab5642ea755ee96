type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float * int
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ----- printing ----- *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* [colon] and [comma] are the separators: tight for the compact
   printer, spaced inside a rows-layout line *)
let rec add ~colon ~comma buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num (f, decimals) ->
      Buffer.add_string buf
        (if Float.is_finite f then Printf.sprintf "%.*f" decimals f else "null")
  | Str s -> add_string buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf comma;
          add ~colon ~comma buf v)
        items;
      Buffer.add_char buf ']'
  | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf comma;
          add_string buf k;
          Buffer.add_string buf colon;
          add ~colon ~comma buf v)
        members;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add ~colon:":" ~comma:"," buf v;
  Buffer.contents buf

let to_rows v =
  let buf = Buffer.create 1024 in
  let inline = add ~colon:": " ~comma:", " buf in
  let rows items =
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf "    ";
        inline v)
      items;
    Buffer.add_string buf "\n  ]"
  in
  (match v with
  | Obj (_ :: _ as members) ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf "  ";
          add_string buf k;
          Buffer.add_string buf ": ";
          match v with Arr (_ :: _ as items) -> rows items | v -> inline v)
        members;
      Buffer.add_string buf "\n}"
  | v -> inline v);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ----- parsing ----- *)

exception Bad of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else fail "unexpected end of input" in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.equal (String.sub s !pos len) word then begin
      pos := !pos + len;
      v
    end
    else fail "bad literal"
  in
  let hex4 () =
    let code =
      if !pos + 4 <= n then int_of_string_opt ("0x" ^ String.sub s !pos 4) else None
    in
    match code with
    | Some c ->
        pos := !pos + 4;
        c
    | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          let c = peek () in
          incr pos;
          (match c with
          | '"' | '\\' | '/' -> Buffer.add_char buf c
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              let code = hex4 () in
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if Uchar.is_valid code then
                Buffer.add_utf_8_uchar buf (Uchar.of_int code)
              else fail "bad \\u escape"
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let digits () =
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        incr pos
      done
    in
    if s.[!pos] = '-' then incr pos;
    digits ();
    let decimals =
      if !pos < n && s.[!pos] = '.' then begin
        incr pos;
        let first = !pos in
        digits ();
        Some (!pos - first)
      end
      else None
    in
    let tok = String.sub s start (!pos - start) in
    let num decimals =
      match float_of_string_opt tok with
      | Some f -> Num (f, decimals)
      | None -> fail "bad number"
    in
    match decimals with
    | None -> (
        match int_of_string_opt tok with
        | Some i when String.equal (string_of_int i) tok -> Int i
        | Some _ | None -> num 0)
    | Some d -> num d
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else Obj (members [])
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin
          incr pos;
          Arr []
        end
        else Arr (elements [])
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected '%c'" c)
  and members acc =
    skip_ws ();
    let k = parse_string () in
    expect ':';
    let acc = (k, value ()) :: acc in
    skip_ws ();
    match peek () with
    | ',' ->
        incr pos;
        members acc
    | '}' ->
        incr pos;
        List.rev acc
    | _ -> fail "expected ',' or '}'"
  and elements acc =
    let acc = value () :: acc in
    skip_ws ();
    match peek () with
    | ',' ->
        incr pos;
        elements acc
    | ']' ->
        incr pos;
        List.rev acc
    | _ -> fail "expected ',' or ']'"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let member k = function Obj members -> List.assoc_opt k members | _ -> None
