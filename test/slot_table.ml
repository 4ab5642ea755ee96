(* The node-info slot table of a snapshot image, read by tests without
   the snapshot decoder.  The protocol section opens with seven header
   tokens and then the table: a count, and per entry a host, a count of
   labels and per label a count of (host, offset, leaf) entries.  The
   node count follows, then each node: id, its dirty bool, its own CRT
   row and a count of links.  Each link is its peer and four options (a
   bool, then the value when present): the delivered update (seq, a
   counted list of slot references, the aggrCRT row), the out entry
   (epoch, seq, slot references, CRT row, send round, tries and two
   bools), the link epoch and the last send round.  The dataset name is
   the payload's one string token; no test names a dataset after a
   section tag. *)

module Codec = Bwc_persist.Codec
module Label = Bwc_predtree.Label
module Node_info = Bwc_core.Node_info
module Protocol = Bwc_core.Protocol

type cursor = { lines : string array; mutable pos : int }

let payload_lines image =
  match Codec.decode image with
  | Ok payload -> Array.of_list (String.split_on_char '\n' payload)
  | Error e -> Alcotest.failf "not a snapshot container: %s" (Codec.error_to_string e)

let open_protocol image =
  let lines = payload_lines image in
  let rec find i =
    if i >= Array.length lines then Alcotest.fail "no protocol section"
    else if String.equal lines.(i) "# protocol" then i
    else find (i + 1)
  in
  { lines; pos = find 0 + 8 }

let token c prefix =
  let l = c.lines.(c.pos) in
  if String.length l < 2 || l.[0] <> prefix then
    Alcotest.failf "line %d: expected '%c' token, got %S" c.pos prefix l;
  c.pos <- c.pos + 1;
  String.sub l 2 (String.length l - 2)

let int c = int_of_string (token c 'i')
let float c = float_of_string (token c 'f')

let counted c f =
  let n = int_of_string (token c 'n') in
  let rec go k acc = if k = 0 then Array.of_list (List.rev acc) else go (k - 1) (f () :: acc) in
  go n []

let read_table c =
  counted c (fun () ->
      let host = int c in
      let labels =
        counted c (fun () ->
            counted c (fun () ->
                let h = int c in
                let offset = float c in
                let leaf = float c in
                { Label.host = h; offset; leaf }))
      in
      Node_info.make ~host ~labels)

let read image = read_table (open_protocol image)

let present c = String.equal (token c 'b') "1"

(* slot references and CRT rows are both counted ints *)
let skip_ints c = ignore (counted c (fun () -> int c) : int array)

let reencode c = Codec.encode (String.concat "\n" (Array.to_list c.lines))

(* [image] with the first reference of the first node's first aggrNode
   table replaced by [slot], in a fresh container *)
let with_first_ref image slot =
  let c = open_protocol image in
  let (_ : Node_info.t array) = read_table c in
  if int_of_string (token c 'n') = 0 then Alcotest.fail "no node";
  let (_ : int) = int c in
  let (_ : bool) = present c in
  skip_ints c;
  if int_of_string (token c 'n') = 0 then Alcotest.fail "first node has no link";
  let (_ : int) = int c in
  if not (present c) then Alcotest.fail "first link has delivered nothing";
  let (_ : int) = int c in
  if int_of_string (token c 'n') = 0 then Alcotest.fail "first aggrNode table is empty";
  c.lines.(c.pos) <- Printf.sprintf "i %d" slot;
  reencode c

(* [image] with [node]'s out entry to [peer] made due for a resend of
   another payload: the first entry of its CRT row raised by one, its
   acked flag cleared and its send round set to [sent_round], in a fresh
   container *)
let with_unacked_out image ~node ~peer ~sent_round =
  let c = open_protocol image in
  let (_ : Node_info.t array) = read_table c in
  let edit = ref None in
  let link id () =
    let p = int c in
    if present c then begin
      (* seq, slot references, aggrCRT row *)
      c.pos <- c.pos + 1;
      skip_ints c;
      skip_ints c
    end;
    if present c then begin
      (* epoch, seq, slot references, CRT row, then send round, tries,
         acked and gave_up *)
      c.pos <- c.pos + 2;
      skip_ints c;
      let crt = c.pos + 1 in
      skip_ints c;
      if id = node && p = peer then edit := Some (crt, c.pos, c.pos + 2);
      c.pos <- c.pos + 4
    end;
    (* link epoch, last send round *)
    if present c then c.pos <- c.pos + 1;
    if present c then c.pos <- c.pos + 1
  in
  let (_ : unit array) =
    counted c (fun () ->
        let id = int c in
        let (_ : bool) = present c in
        skip_ints c;
        ignore (counted c (link id) : unit array))
  in
  match !edit with
  | None -> Alcotest.failf "node %d has no out entry to %d" node peer
  | Some (crt, sent, acked) ->
      c.pos <- crt;
      c.lines.(crt) <- Printf.sprintf "i %d" (int c + 1);
      c.lines.(sent) <- Printf.sprintf "i %d" sent_round;
      c.lines.(acked) <- "b 0";
      reencode c

(* a label's entries with their floats' bits: equal keys are bit-equal
   labels *)
let label_key (lab : Label.t) =
  let b = Buffer.create 64 in
  Array.iter
    (fun (e : Label.entry) ->
      Printf.bprintf b " %d:%Lx:%Lx" e.Label.host (Int64.bits_of_float e.Label.offset)
        (Int64.bits_of_float e.Label.leaf))
    lab;
  Buffer.contents b

(* the dedup key, spelled out independently of the encoder: the host and
   every label's key *)
let key (info : Node_info.t) =
  String.concat "|"
    (string_of_int info.Node_info.host :: Array.to_list (Array.map label_key info.Node_info.labels))

(* the table an image of [d] must carry: its distinct infos by [key], in
   first-reference order over nodes ascending, then link by link, each
   link's aggrNode table before its out-entry *)
let first_references (d : Protocol.dump) =
  let seen = Hashtbl.create 64 and order = ref [] in
  let visit info =
    let k = key info in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      order := k :: !order
    end
  in
  List.iter
    (fun (nd : Protocol.node_dump) ->
      List.iter
        (fun (l : Protocol.link_dump) ->
          Option.iter (fun (u : Protocol.update_dump) -> List.iter visit u.u_aggr_node)
            l.l_delivered;
          Option.iter (fun (o : Protocol.out_dump) -> List.iter visit o.o_prop_node) l.l_out)
        nd.Protocol.nd_links)
    d.Protocol.d_nodes;
  List.rev !order
