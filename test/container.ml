(* A snapshot container written the plain way: the header formatted with
   Printf and a bytewise CRC-32, one bit at a time, that shares no code
   with Codec's slicing-by-8 tables.  Tests wrap hand-edited and
   old-format payloads in a current container with [wrap], and the
   codec-oracle property compares Codec.seal's images with it. *)

let crc32 s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xffffffff

let wrap payload =
  Printf.sprintf "BWCSNAP 3\nlen %d crc %08x\n%s" (String.length payload) (crc32 payload)
    payload
