(* Whole-system snapshot encode/decode.

   Each layer of the stack exposes a validating [dump]/[of_dump] pair;
   this module is the single place that turns those dump records into
   bytes and back.  Decoding reverses the dependency order the system is
   built in: dataset -> classes -> ensemble (geometry) -> protocol
   (per-link state over the restored ensemble) -> optional centralized
   index -> facade assembly.  Spaces never serialize: the measured space
   is rebuilt once from the dataset matrix, which reproduces the exact
   same distances (pure arithmetic on the same floats).

   Deliberately absent from snapshots: metrics counters (a restored
   process starts its observability from zero) and in-flight engine
   messages (a crash loses the network; the seq/ACK + retransmission
   layer is the recovery mechanism for exactly that loss). *)

module Dataset = Bwc_dataset.Dataset
module Dmatrix = Bwc_metric.Dmatrix
module Tree = Bwc_predtree.Tree
module Anchor = Bwc_predtree.Anchor
module Framework = Bwc_predtree.Framework
module Ensemble = Bwc_predtree.Ensemble
module Label = Bwc_predtree.Label
module Protocol = Bwc_core.Protocol
module Classes = Bwc_core.Classes
module Node_info = Bwc_core.Node_info
module Index = Bwc_core.Find_cluster.Index
module Dynamic = Bwc_core.Dynamic
module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace
module W = Codec.W
module R = Codec.R

type source = [ `Dynamic of Dynamic.t ]

(* ----- dataset: name + upper-triangular bandwidth matrix ----- *)

let enc_dataset w ds =
  W.tag w "dataset";
  W.str w ds.Dataset.name;
  let n = Dataset.size ds in
  W.int w n;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      W.float w (Dataset.bw ds i j)
    done
  done

let dec_dataset r =
  R.tag r "dataset";
  let name = R.str r in
  let n = R.int r in
  if n < 1 then Codec.corrupt "dataset size %d" n;
  let pairs = n * (n - 1) / 2 in
  let vals = Array.make (max 1 pairs) 0. in
  for k = 0 to pairs - 1 do
    vals.(k) <- R.float r
  done;
  (* row-major upper triangle: row i starts after the i longer rows
     above it *)
  let pos i j = (i * ((2 * n) - i - 1) / 2) + (j - i - 1) in
  Dataset.make ~name (Dmatrix.of_fun n ~diag:infinity (fun i j -> vals.(pos i j)))

(* ----- classes ----- *)

let enc_classes w cl =
  W.tag w "classes";
  W.float w (Classes.c cl);
  W.array w (W.float w) (Classes.bandwidths cl)

let dec_classes r =
  R.tag r "classes";
  let c = R.float r in
  let bws = R.array r (fun () -> R.float r) in
  Classes.make ~c (Array.to_list bws)

(* ----- prediction-tree geometry ----- *)

let enc_label w (lab : Label.t) =
  W.array w
    (fun (e : Label.entry) ->
      W.int w e.Label.host;
      W.float w e.Label.offset;
      W.float w e.Label.leaf)
    lab

let dec_label r : Label.t =
  R.array r (fun () ->
      let host = R.int r in
      let offset = R.float r in
      let leaf = R.float r in
      { Label.host; offset; leaf })

let enc_tree w (d : Tree.dump) =
  W.tag w "tree";
  W.array w (W.int w) d.Tree.d_kinds;
  W.list w
    (fun (e : Tree.edge_dump) ->
      W.int w e.Tree.e_a;
      W.int w e.Tree.e_b;
      W.float w e.Tree.e_weight;
      W.int w e.Tree.e_owner;
      W.bool w e.Tree.e_live)
    d.Tree.d_edges;
  W.list w
    (fun (h, v) ->
      W.int w h;
      W.int w v)
    d.Tree.d_hosts

let dec_tree r : Tree.dump =
  R.tag r "tree";
  let d_kinds = R.array r (fun () -> R.int r) in
  let d_edges =
    R.list r (fun () ->
        let e_a = R.int r in
        let e_b = R.int r in
        let e_weight = R.float r in
        let e_owner = R.int r in
        let e_live = R.bool r in
        { Tree.e_a; e_b; e_weight; e_owner; e_live })
  in
  let d_hosts =
    R.list r (fun () ->
        let h = R.int r in
        let v = R.int r in
        (h, v))
  in
  { Tree.d_kinds; d_edges; d_hosts }

let enc_anchor w (d : Anchor.dump) =
  W.tag w "anchor";
  W.option w (W.int w) d.Anchor.d_root;
  W.list w
    (fun (h, kids) ->
      W.int w h;
      W.list w (W.int w) kids)
    d.Anchor.d_nodes

let dec_anchor r : Anchor.dump =
  R.tag r "anchor";
  let d_root = R.option r (fun () -> R.int r) in
  let d_nodes =
    R.list r (fun () ->
        let h = R.int r in
        let kids = R.list r (fun () -> R.int r) in
        (h, kids))
  in
  { Anchor.d_root; d_nodes }

let enc_mode w (m : Framework.mode) =
  (match m.Framework.base with `Root -> W.int w 0 | `Random -> W.int w 1);
  match m.Framework.end_search with
  | `Exact -> W.int w 0
  | `Anchor_guided budget ->
      W.int w 1;
      W.int w budget

let dec_mode r : Framework.mode =
  let base =
    match R.int r with
    | 0 -> `Root
    | 1 -> `Random
    | v -> Codec.corrupt "unknown base strategy %d" v
  in
  let end_search =
    match R.int r with
    | 0 -> `Exact
    | 1 -> `Anchor_guided (R.int r)
    | v -> Codec.corrupt "unknown end strategy %d" v
  in
  { Framework.base; end_search }

let enc_framework w (d : Framework.dump) =
  W.tag w "framework";
  enc_mode w d.Framework.d_mode;
  enc_tree w d.Framework.d_tree;
  enc_anchor w d.Framework.d_anchor;
  W.list w
    (fun (h, lab) ->
      W.int w h;
      enc_label w lab)
    d.Framework.d_labels;
  W.list w (W.int w) d.Framework.d_rev_order

let dec_framework r : Framework.dump =
  R.tag r "framework";
  let d_mode = dec_mode r in
  let d_tree = dec_tree r in
  let d_anchor = dec_anchor r in
  let d_labels =
    R.list r (fun () ->
        let h = R.int r in
        let lab = dec_label r in
        (h, lab))
  in
  let d_rev_order = R.list r (fun () -> R.int r) in
  { Framework.d_mode; d_tree; d_anchor; d_labels; d_rev_order }

let enc_ensemble w (d : Ensemble.dump) =
  W.tag w "ensemble";
  W.array w (enc_framework w) d

let dec_ensemble r : Ensemble.dump =
  R.tag r "ensemble";
  R.array r (fun () -> dec_framework r)

(* ----- protocol -----

   Algorithm 2 hands the same node infos to every neighbour, so one info
   is referenced from many aggrNode tables and out-entries.  The section
   writes each distinct info once, in a slot table after its header
   fields, and every reference as a slot index.  Slots are numbered in
   first-reference order over the dump's traversal: nodes ascending, and
   within a node link by link, each link's aggrNode table before its
   out-entry.  An image holds no failure detector and no crashed member
   ({!encode} refuses both), so neither leases nor liveness are
   written. *)

let enc_info w (ni : Node_info.t) =
  W.int w ni.Node_info.host;
  W.array w (enc_label w) ni.Node_info.labels

let dec_info r =
  let host = R.int r in
  let labels = R.array r (fun () -> dec_label r) in
  Node_info.make ~host ~labels

(* Two infos share a slot when they have the same host and bit-equal
   labels.  Physical equality is only the fast path: a restored system
   holds infos decoded from the table beside infos rebuilt from the
   ensemble, distinct objects with equal labels, and must number its
   slots as the original does.  Bits, not [Float.equal]: [%h] writes
   [-0.0] and [0.0] differently. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_entry (a : Label.entry) (b : Label.entry) =
  a.Label.host = b.Label.host
  && same_bits a.Label.offset b.Label.offset
  && same_bits a.Label.leaf b.Label.leaf

let same_array same a b = Array.length a = Array.length b && Array.for_all2 same a b

let same_info (a : Node_info.t) (b : Node_info.t) =
  a == b
  || (a.Node_info.host = b.Node_info.host
     && same_array (same_array same_entry) a.Node_info.labels b.Node_info.labels)

(* [slot info] is the info's slot, numbered on first sight; the table is
   built by one pass over the traversal the encoder then repeats *)
let slot_table (d : Protocol.dump) =
  let by_host = Hashtbl.create 64 and table = ref [] and next = ref 0 in
  let slot (info : Node_info.t) =
    let host = info.Node_info.host in
    match List.find_opt (fun (i, _) -> same_info i info) (Hashtbl.find_all by_host host) with
    | Some (_, k) -> k
    | None ->
        let k = !next in
        incr next;
        table := info :: !table;
        Hashtbl.add by_host host (info, k);
        k
  in
  let visit infos = List.iter (fun i -> ignore (slot i : int)) infos in
  List.iter
    (fun (nd : Protocol.node_dump) ->
      List.iter
        (fun (l : Protocol.link_dump) ->
          Option.iter (fun (u : Protocol.update_dump) -> visit u.Protocol.u_aggr_node)
            l.Protocol.l_delivered;
          Option.iter (fun (o : Protocol.out_dump) -> visit o.Protocol.o_prop_node)
            l.Protocol.l_out)
        nd.Protocol.nd_links)
    d.Protocol.d_nodes;
  (slot, Array.of_list (List.rev !table))

let enc_protocol w (d : Protocol.dump) =
  if d.Protocol.d_detector <> None then
    invalid_arg "Snapshot.encode: the protocol runs a failure detector, which images do not hold";
  List.iter
    (fun (nd : Protocol.node_dump) ->
      if not nd.Protocol.nd_active then
        invalid_arg
          (Printf.sprintf "Snapshot.encode: member %d is crashed, which images do not hold"
             nd.Protocol.nd_id))
    d.Protocol.d_nodes;
  let slot, table = slot_table d in
  let enc_refs infos = W.list w (fun i -> W.int w (slot i)) infos in
  let enc_row row = W.array w (W.int w) row in
  W.tag w "protocol";
  W.int w d.Protocol.d_n_cut;
  W.int w d.Protocol.d_resend_timeout;
  W.int w d.Protocol.d_max_retransmits;
  W.int w d.Protocol.d_rounds;
  W.int w d.Protocol.d_epoch;
  W.int w d.Protocol.d_engine_round;
  W.i64 w d.Protocol.d_engine_rng;
  W.array w (enc_info w) table;
  W.list w
    (fun (nd : Protocol.node_dump) ->
      W.int w nd.Protocol.nd_id;
      W.bool w nd.Protocol.nd_dirty;
      enc_row nd.Protocol.nd_own_row;
      W.list w
        (fun (l : Protocol.link_dump) ->
          W.int w l.Protocol.l_peer;
          W.option w
            (fun (u : Protocol.update_dump) ->
              W.int w u.Protocol.u_seq;
              enc_refs u.Protocol.u_aggr_node;
              enc_row u.Protocol.u_aggr_crt)
            l.Protocol.l_delivered;
          W.option w
            (fun (o : Protocol.out_dump) ->
              W.int w o.Protocol.o_epoch;
              W.int w o.Protocol.o_seq;
              enc_refs o.Protocol.o_prop_node;
              enc_row o.Protocol.o_prop_crt;
              W.int w o.Protocol.o_sent_round;
              W.int w o.Protocol.o_tries;
              W.bool w o.Protocol.o_acked;
              W.bool w o.Protocol.o_gave_up)
            l.Protocol.l_out;
          W.option w (W.int w) l.Protocol.l_epoch;
          W.option w (W.int w) l.Protocol.l_last_sent)
        nd.Protocol.nd_links)
    d.Protocol.d_nodes

let dec_protocol r : Protocol.dump =
  R.tag r "protocol";
  let d_n_cut = R.int r in
  let d_resend_timeout = R.int r in
  let d_max_retransmits = R.int r in
  let d_rounds = R.int r in
  let d_epoch = R.int r in
  let d_engine_round = R.int r in
  let d_engine_rng = R.i64 r in
  (* each info is built once; every reference to its slot shares it *)
  let table = R.array r (fun () -> dec_info r) in
  let dec_refs () =
    R.list r (fun () ->
        let k = R.int r in
        if k < 0 || k >= Array.length table then
          Codec.corrupt "node-info slot %d outside [0, %d)" k (Array.length table);
        table.(k))
  in
  let dec_row () = R.array r (fun () -> R.int r) in
  let dec_int () = R.int r in
  let d_nodes =
    R.list r (fun () ->
        let nd_id = R.int r in
        let nd_dirty = R.bool r in
        let nd_own_row = dec_row () in
        let nd_links =
          R.list r (fun () ->
              let l_peer = R.int r in
              let l_delivered =
                R.option r (fun () ->
                    let u_seq = R.int r in
                    let u_aggr_node = dec_refs () in
                    let u_aggr_crt = dec_row () in
                    { Protocol.u_seq; u_aggr_node; u_aggr_crt })
              in
              let l_out =
                R.option r (fun () ->
                    let o_epoch = R.int r in
                    let o_seq = R.int r in
                    let o_prop_node = dec_refs () in
                    let o_prop_crt = dec_row () in
                    let o_sent_round = R.int r in
                    let o_tries = R.int r in
                    let o_acked = R.bool r in
                    let o_gave_up = R.bool r in
                    {
                      Protocol.o_epoch;
                      o_seq;
                      o_prop_node;
                      o_prop_crt;
                      o_sent_round;
                      o_tries;
                      o_acked;
                      o_gave_up;
                    })
              in
              let l_epoch = R.option r dec_int in
              let l_last_sent = R.option r dec_int in
              { Protocol.l_peer; l_delivered; l_out; l_epoch; l_last_sent; l_lease = None })
        in
        { Protocol.nd_id; nd_active = true; nd_dirty; nd_own_row; nd_links })
  in
  {
    Protocol.d_n_cut;
    d_resend_timeout;
    d_max_retransmits;
    d_rounds;
    d_epoch;
    d_engine_round;
    d_engine_rng;
    d_nodes;
    d_detector = None;
  }

(* ----- centralized index ----- *)

let enc_index w (d : Index.dump) =
  W.tag w "index";
  W.list w (W.int w) d.Index.d_members;
  W.array w (W.int w) d.Index.d_sizes

let dec_index r : Index.dump =
  R.tag r "index";
  let d_members = R.list r (fun () -> R.int r) in
  let d_sizes = R.array r (fun () -> R.int r) in
  { Index.d_members; d_sizes }

(* ----- whole systems ----- *)

let encode_payload dyn =
  let w = W.create () in
  W.tag w "snapshot";
  W.str w "dynamic";
  W.i64 w (Dynamic.rng_state dyn);
  W.float w (Dynamic.c dyn);
  enc_dataset w (Dynamic.dataset dyn);
  enc_classes w (Dynamic.classes dyn);
  enc_ensemble w (Ensemble.dump (Dynamic.ensemble dyn));
  enc_protocol w (Protocol.dump (Dynamic.protocol dyn));
  W.option w (fun i -> enc_index w (Index.dump i)) (Dynamic.index_opt dyn);
  Codec.encode (W.contents w)

let dec_dynamic ?metrics ?trace r =
  let rng_state = R.i64 r in
  let c = R.float r in
  let dataset = dec_dataset r in
  let classes = dec_classes r in
  let ens_dump = dec_ensemble r in
  let proto_dump = dec_protocol r in
  let index_dump = R.option r (fun () -> dec_index r) in
  R.eof r;
  (* one measured universe, shared by the ensemble, the index and the
     assembled system *)
  let space = Dataset.metric ~c dataset in
  let fw = Ensemble.of_dump ?metrics space ens_dump in
  let protocol = Protocol.of_dump ?metrics ?trace ~classes fw proto_dump in
  let index = Option.map (Index.of_dump space) index_dump in
  Dynamic.assemble ~dataset ~c ~fw ~protocol ~classes ~rng_state ~index ()

(* the kind tag stays in the payload: the retired static ["system"]
   kind, which only version 1 wrote, is refused like any other
   corruption should it appear in a current container *)
let decode_payload ?metrics ?trace payload =
  try
    let r = R.create payload in
    R.tag r "snapshot";
    match R.str r with
    | "dynamic" -> Ok (dec_dynamic ?metrics ?trace r)
    | k -> Codec.corrupt "unknown snapshot kind %S" k
  with
  | Codec.Error e -> Error e
  | Invalid_argument msg | Failure msg -> Error (Codec.Corrupt msg)

(* ----- instrumented entry points ----- *)

let round dyn = Protocol.current_round (Dynamic.protocol dyn)

let bump metrics name =
  match metrics with
  | Some m -> Registry.Counter.incr (Registry.counter m name)
  | None -> ()

let emit trace ev = match trace with Some tr -> Trace.emit tr ev | None -> ()

let encode ?metrics ?trace (`Dynamic dyn : source) =
  let bytes = encode_payload dyn in
  bump metrics "persist.snapshots";
  emit trace (Trace.Snapshot_write { round = round dyn; bytes = String.length bytes });
  bytes

let decode ?metrics ?trace bytes =
  match
    match Codec.decode bytes with
    | Error e -> Error e
    | Ok payload -> decode_payload ?metrics ?trace payload
  with
  | Ok dyn ->
      bump metrics "persist.restores";
      emit trace (Trace.Restore { round = round dyn; warm = true });
      Ok dyn
  | Error e ->
      bump metrics "persist.restore_rejected";
      emit trace
        (Trace.Restore_rejected { round = 0; reason = Codec.error_to_string e });
      Error e

let load ?metrics ?trace path = decode ?metrics ?trace (Codec.read_file path)

(* ----- rotated generations -----

   [path] is the newest image, [path.1] the previous one, ... up to
   [path.(keep-1)].  Rotation refuses bytes that fail container
   verification before touching the chain, so a buggy caller can never
   push the only valid image off the end with garbage. *)

let gen_path path g = if g = 0 then path else Printf.sprintf "%s.%d" path g

let rotate ?metrics ?(keep = 3) ~path bytes =
  if keep < 1 then invalid_arg "Snapshot.rotate: keep < 1";
  match Codec.decode bytes with
  | Error e ->
      bump metrics "persist.rotate_rejected";
      Error e
  | Ok (_ : string) ->
      for g = keep - 2 downto 0 do
        let src = gen_path path g and dst = gen_path path (g + 1) in
        if Sys.file_exists src then Sys.rename src dst
      done;
      Codec.write_file path bytes;
      bump metrics "persist.rotations";
      Ok ()

let load_any ?metrics ?trace ?(keep = 3) path =
  if keep < 1 then invalid_arg "Snapshot.load_any: keep < 1";
  let rec go g errs =
    if g >= keep then (None, List.rev errs)
    else
      let p = gen_path path g in
      if not (Sys.file_exists p) then go (g + 1) errs
      else
        match load ?metrics ?trace p with
        | Ok dyn ->
            if g > 0 then bump metrics "persist.generation_fallbacks";
            (Some (dyn, g), List.rev errs)
        | Error e -> go (g + 1) ((g, e) :: errs)
  in
  go 0 []

let restore_or_cold ?metrics ?trace ~cold bytes =
  match decode ?metrics ?trace bytes with
  | Ok dyn -> (dyn, `Warm)
  | Error e ->
      let dyn = cold () in
      bump metrics "persist.cold_starts";
      emit trace (Trace.Restore { round = round dyn; warm = false });
      (dyn, `Cold e)
