(* Snapshot container and token codec.

   The container is three parts: a magic+version line, a length+checksum
   line, and the payload.  Everything that can go wrong with a file on
   disk — truncation, bit rot, a snapshot from a future version — is
   caught here, before any payload byte is interpreted, so the decoders
   above this layer only ever see a payload whose length and CRC-32
   already matched.

   The payload itself is a stream of typed, newline-terminated tokens
   (ints, hex floats, length-prefixed strings, counts, section tags).
   Text keeps snapshots diffable and debuggable; hex floats ("%h") make
   every float round-trip bit-exactly, which is what lets a restore
   re-snapshot to byte-identical output.  No [Marshal] anywhere: the
   format is versioned, stable across compiler versions, and every read
   is validated. *)

type error =
  | Bad_magic
  | Bad_version of int
  | Truncated
  | Bad_checksum
  | Corrupt of string

exception Error of error

let error_to_string = function
  | Bad_magic -> "bad magic"
  | Bad_version v -> Printf.sprintf "unsupported snapshot version %d" v
  | Truncated -> "truncated"
  | Bad_checksum -> "checksum mismatch"
  | Corrupt msg -> "corrupt payload: " ^ msg

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Error (Corrupt msg))) fmt

(* CRC-32 (IEEE reflected polynomial), table-driven.  Plain ints: every
   intermediate stays below 2^32, well within OCaml's 63 bits. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

let magic = "BWCSNAP"
(* 3: the protocol section writes one record per overlay link and holds
   no detector and no liveness; version 2 (six per-peer lists a node, a
   detector section) and version 1 (node infos inline, before the slot
   table) are refused as [Bad_version] *)
let version = 3

let encode payload =
  Printf.sprintf "%s %d\nlen %d crc %08x\n%s" magic version
    (String.length payload) (crc32 payload) payload

let decode bytes =
  try
    let nl1 =
      match String.index_opt bytes '\n' with
      | Some i -> i
      | None ->
          (* no complete first line: a recognisable magic prefix means the
             file was cut short, anything else is not ours at all *)
          let m = String.length magic in
          if String.length bytes >= m && String.sub bytes 0 m = magic then
            raise (Error Truncated)
          else raise (Error Bad_magic)
    in
    (match String.split_on_char ' ' (String.sub bytes 0 nl1) with
    | [ m; v ] when m = magic -> (
        match int_of_string_opt v with
        | Some v when v = version -> ()
        | Some v -> raise (Error (Bad_version v))
        | None -> corrupt "unreadable version field")
    | _ -> raise (Error Bad_magic));
    let nl2 =
      match String.index_from_opt bytes (nl1 + 1) '\n' with
      | Some i -> i
      | None -> raise (Error Truncated)
    in
    let len, crc =
      match String.split_on_char ' ' (String.sub bytes (nl1 + 1) (nl2 - nl1 - 1)) with
      | [ "len"; l; "crc"; c ] when String.length c = 8 -> (
          match (int_of_string_opt l, int_of_string_opt ("0x" ^ c)) with
          | Some l, Some c when l >= 0 -> (l, c)
          | _ -> corrupt "unreadable length/checksum header")
      | _ -> corrupt "malformed length/checksum header"
    in
    let start = nl2 + 1 in
    let avail = String.length bytes - start in
    if avail < len then raise (Error Truncated);
    if avail > len then corrupt "%d trailing bytes after payload" (avail - len);
    let payload = String.sub bytes start len in
    if crc32 payload <> crc then raise (Error Bad_checksum);
    Ok payload
  with Error e -> Result.Error e

(* Crash-consistent file write: the bytes land in a sibling temp file
   first and are renamed into place, so a crash mid-write leaves either
   the old snapshot or the new one, never a torn file. *)
let write_file path bytes =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc bytes);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 4096
  let contents = Buffer.contents
  let int w v = Buffer.add_string w ("i " ^ string_of_int v ^ "\n")
  let i64 w v = Buffer.add_string w (Printf.sprintf "I %Ld\n" v)
  let float w v = Buffer.add_string w (Printf.sprintf "f %h\n" v)
  let bool w v = Buffer.add_string w (if v then "b 1\n" else "b 0\n")

  let str w s =
    Buffer.add_string w (Printf.sprintf "s %d " (String.length s));
    Buffer.add_string w s;
    Buffer.add_char w '\n'

  let tag w name = Buffer.add_string w ("# " ^ name ^ "\n")
  let count w c = Buffer.add_string w ("n " ^ string_of_int c ^ "\n")

  let list w f items =
    count w (List.length items);
    List.iter f items

  let array w f items =
    count w (Array.length items);
    Array.iter f items

  let option w f = function
    | None -> bool w false
    | Some v ->
        bool w true;
        f v
end

module R = struct
  type t = { data : string; mutable pos : int }

  let create data = { data; pos = 0 }

  let line r =
    if r.pos >= String.length r.data then corrupt "unexpected end of payload";
    match String.index_from_opt r.data r.pos '\n' with
    | None -> corrupt "unterminated token at byte %d" r.pos
    | Some nl ->
        let s = String.sub r.data r.pos (nl - r.pos) in
        r.pos <- nl + 1;
        s

  let token r prefix =
    let l = line r in
    if String.length l < 2 || l.[0] <> prefix || l.[1] <> ' ' then
      corrupt "expected '%c' token, got %S" prefix l;
    String.sub l 2 (String.length l - 2)

  let int r =
    match int_of_string_opt (token r 'i') with
    | Some v -> v
    | None -> corrupt "unreadable int"

  let i64 r =
    match Int64.of_string_opt (token r 'I') with
    | Some v -> v
    | None -> corrupt "unreadable int64"

  let float r =
    match float_of_string_opt (token r 'f') with
    | Some v -> v
    | None -> corrupt "unreadable float"

  let bool r =
    match token r 'b' with
    | "1" -> true
    | "0" -> false
    | s -> corrupt "unreadable bool %S" s

  let count r =
    match int_of_string_opt (token r 'n') with
    | Some v when v >= 0 -> v
    | Some _ | None -> corrupt "unreadable count"

  let str r =
    (* "s <len> <raw bytes>\n" — the bytes may themselves contain
       newlines, so this one token is parsed by hand *)
    let d = r.data in
    let n = String.length d in
    if r.pos + 2 > n || d.[r.pos] <> 's' || d.[r.pos + 1] <> ' ' then
      corrupt "expected string token";
    let sp =
      match String.index_from_opt d (r.pos + 2) ' ' with
      | Some i -> i
      | None -> corrupt "unterminated string header"
    in
    let len =
      match int_of_string_opt (String.sub d (r.pos + 2) (sp - r.pos - 2)) with
      | Some l when l >= 0 -> l
      | Some _ | None -> corrupt "unreadable string length"
    in
    if sp + 1 + len >= n then corrupt "string overruns payload";
    if d.[sp + 1 + len] <> '\n' then corrupt "unterminated string";
    let s = String.sub d (sp + 1) len in
    r.pos <- sp + len + 2;
    s

  let tag r name =
    let l = line r in
    if l <> "# " ^ name then corrupt "expected section %S, got %S" name l

  (* explicit loops: OCaml leaves [List.init]/[Array.init] evaluation
     order unspecified, and token reads are order-sensitive effects *)
  let list r f =
    let c = count r in
    let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f () :: acc) in
    go c []

  let array r f =
    let c = count r in
    if c = 0 then [||]
    else begin
      let a = Array.make c (f ()) in
      for i = 1 to c - 1 do
        a.(i) <- f ()
      done;
      a
    end

  let option r f = if bool r then Some (f ()) else None

  let eof r =
    let extra = String.length r.data - r.pos in
    if extra <> 0 then corrupt "%d unread payload bytes" extra
end
