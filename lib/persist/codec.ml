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
  | Io of string

exception Error of error

let error_to_string = function
  | Bad_magic -> "bad magic"
  | Bad_version v -> Printf.sprintf "unsupported snapshot version %d" v
  | Truncated -> "truncated"
  | Bad_checksum -> "checksum mismatch"
  | Corrupt msg -> "corrupt payload: " ^ msg
  | Io msg -> "write failed: " ^ msg

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Error (Corrupt msg))) fmt

(* CRC-32 (IEEE reflected polynomial), slicing-by-8.  Table 0 is the
   classic byte table; table k gives a byte's contribution k bytes
   further on, so one step folds eight bytes in with eight lookups
   instead of eight dependent ones.  The eight tables sit in one flat
   array, table k at [256 * k].  Plain ints: every entry stays below
   2^32, well within OCaml's 63 bits. *)
let crc_tables =
  lazy
    (let t = Array.make 2048 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for i = 256 to 2047 do
       let prev = t.(i - 256) in
       t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
     done;
     t)

let byte b i = Char.code (Bytes.get b i)

let crc32_bytes b pos len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Codec.crc32";
  let t = Lazy.force crc_tables in
  let c = ref 0xffffffff and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let p = !i in
    let x =
      !c
      lxor (byte b p lor (byte b (p + 1) lsl 8) lor (byte b (p + 2) lsl 16)
           lor (byte b (p + 3) lsl 24))
    in
    c :=
      t.(1792 + (x land 0xff))
      lxor t.(1536 + ((x lsr 8) land 0xff))
      lxor t.(1280 + ((x lsr 16) land 0xff))
      lxor t.(1024 + (x lsr 24))
      lxor t.(768 + byte b (p + 4))
      lxor t.(512 + byte b (p + 5))
      lxor t.(256 + byte b (p + 6))
      lxor t.(byte b (p + 7));
    i := p + 8
  done;
  while !i < stop do
    c := t.((!c lxor byte b !i) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xffffffff

(* read only: the string's bytes are never written *)
let crc32 s pos len = crc32_bytes (Bytes.unsafe_of_string s) pos len

let magic = "BWCSNAP"
(* 3: the protocol section writes one record per overlay link and holds
   no detector and no liveness; version 2 (six per-peer lists a node, a
   detector section) and version 1 (node infos inline, before the slot
   table) are refused as [Bad_version] *)
let version = 3

(* The payload's offset and length once magic, version, length and CRC
   all check out; the CRC is computed over the image in place. *)
let frame bytes =
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
    if crc32 bytes start len <> crc then raise (Error Bad_checksum);
    Ok (start, len)
  with Error e -> Result.Error e

let verify bytes = Result.map ignore (frame bytes)
let decode bytes = Result.map (fun (start, len) -> String.sub bytes start len) (frame bytes)

(* Crash-consistent file write: the bytes land in a sibling temp file
   first and are renamed into place, so a crash mid-write leaves either
   the old snapshot or the new one, never a torn file.  A write that
   fails, in the final flush included, raises and leaves no temp file
   behind.  A path that exists and is not a regular file (a pipe, a
   terminal, /dev/stdout) is written in place: there is no file there
   to replace, and a rename would put one where it stood. *)
let remove_noerr path = try Sys.remove path with Sys_error _ -> ()

let write_in_place path bytes =
  let oc = open_out_bin path in
  match
    output_string oc bytes;
    close_out oc
  with
  | () -> ()
  | exception e ->
      close_out_noerr oc;
      raise e

let stage path bytes =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    output_string oc bytes;
    close_out oc
  with
  | () -> tmp
  | exception e ->
      close_out_noerr oc;
      remove_noerr tmp;
      raise e

let write_file path bytes =
  if Sys.file_exists path && not (Sys.is_regular_file path) then write_in_place path bytes
  else begin
    let tmp = stage path bytes in
    try Sys.rename tmp path
    with e ->
      remove_noerr tmp;
      raise e
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ----- tokens formatted in place -----

   Each [put_*] writes at [pos] in [b], which has room, and returns the
   position after what it wrote.  Ints come out as [string_of_int]
   writes them and floats as [Printf "%h"] does, byte for byte. *)

let digit d = String.get "0123456789abcdef" d

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* digits are taken off the non-positive [-|v|], which every int has,
   so [min_int] needs no case of its own; at most 20 bytes *)
let int_width v =
  let q = ref (if v < 0 then v else -v) and n = ref (if v < 0 then 2 else 1) in
  while !q <= -10 do
    q := !q / 10;
    incr n
  done;
  !n

let put_int b pos v =
  let stop = pos + int_width v in
  let q = ref (if v < 0 then v else -v) in
  for i = stop - 1 downto if v < 0 then pos + 1 else pos do
    Bytes.set b i (digit (-(!q mod 10)));
    q := !q / 10
  done;
  if v < 0 then Bytes.set b pos '-';
  stop

(* ["nan"] or ["infinity"] after an optional ["-"]; otherwise ["0x"],
   the leading digit (0 for zero and subnormals, 1 otherwise), ["."]
   and the 52-bit fraction in hex less its trailing zero digits (no
   ["."] when the fraction is zero), then ["p"] and the binary exponent
   with its sign always written: zero is ["0x0p+0"], a subnormal
   ["0x0.…p-1022"].  At most 24 bytes. *)
let put_hexfloat b pos v =
  let bits = Int64.bits_of_float v in
  let top = Int64.to_int (Int64.shift_right_logical bits 52) in
  let e = top land 0x7ff and m = Int64.to_int bits land 0xf_ffff_ffff_ffff in
  let pos = if top land 0x800 = 0 then pos else (Bytes.set b pos '-'; pos + 1) in
  if e = 0x7ff then put_string b pos (if m = 0 then "infinity" else "nan")
  else begin
    Bytes.set b pos '0';
    Bytes.set b (pos + 1) 'x';
    Bytes.set b (pos + 2) (if e = 0 then '0' else '1');
    let pos =
      if m = 0 then pos + 3
      else begin
        let digits = ref 13 in
        while (m lsr (4 * (13 - !digits))) land 0xf = 0 do
          decr digits
        done;
        Bytes.set b (pos + 3) '.';
        for k = 1 to !digits do
          Bytes.set b (pos + 3 + k) (digit ((m lsr (52 - (4 * k))) land 0xf))
        done;
        pos + 4 + !digits
      end
    in
    let exp = if e = 0 then if m = 0 then 0 else -1022 else e - 1023 in
    Bytes.set b pos 'p';
    Bytes.set b (pos + 1) (if exp < 0 then '-' else '+');
    put_int b (pos + 2) (abs exp)
  end

module W = struct
  (* the payload so far is [buf]'s first [len] bytes; it doubles when a
     token would not fit *)
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 65536; len = 0 }

  (* "<prefix> " with room for [n] more bytes and the newline; returns
     where those bytes go *)
  let open_token w prefix n =
    if w.len + n + 3 > Bytes.length w.buf then begin
      let buf = Bytes.create (Int.max (w.len + n + 3) (2 * Bytes.length w.buf)) in
      Bytes.blit w.buf 0 buf 0 w.len;
      w.buf <- buf
    end;
    Bytes.set w.buf w.len prefix;
    Bytes.set w.buf (w.len + 1) ' ';
    w.len + 2

  let close_token w stop =
    Bytes.set w.buf stop '\n';
    w.len <- stop + 1

  let int w v = close_token w (put_int w.buf (open_token w 'i' 20) v)
  let count w c = close_token w (put_int w.buf (open_token w 'n' 20) c)
  let float w v = close_token w (put_hexfloat w.buf (open_token w 'f' 24) v)

  let bool w v =
    let pos = open_token w 'b' 1 in
    Bytes.set w.buf pos (if v then '1' else '0');
    close_token w (pos + 1)

  let i64 w v =
    let s = Int64.to_string v in
    close_token w (put_string w.buf (open_token w 'I' (String.length s)) s)

  let tag w name = close_token w (put_string w.buf (open_token w '#' (String.length name)) name)

  let str w s =
    let n = String.length s in
    let pos = put_int w.buf (open_token w 's' (n + 21)) n in
    Bytes.set w.buf pos ' ';
    close_token w (put_string w.buf (pos + 1) s)

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

(* The container in one allocation of its final size: the header is
   formatted into the image's own bytes, the payload blitted after it,
   and the bytes become the string without a copy (nothing else holds
   them). *)
let seal (w : W.t) =
  let len = w.W.len in
  let crc = crc32_bytes w.W.buf 0 len in
  let header =
    String.length magic + 1 + int_width version + 5 + int_width len + 5 + 8 + 1
  in
  let b = Bytes.create (header + len) in
  let pos = put_string b 0 magic in
  Bytes.set b pos ' ';
  let pos = put_string b (put_int b (pos + 1) version) "\nlen " in
  let pos = put_string b (put_int b pos len) " crc " in
  for k = 0 to 7 do
    Bytes.set b (pos + k) (digit ((crc lsr (28 - (4 * k))) land 0xf))
  done;
  Bytes.set b (pos + 8) '\n';
  Bytes.blit w.W.buf 0 b header len;
  Bytes.unsafe_to_string b

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
