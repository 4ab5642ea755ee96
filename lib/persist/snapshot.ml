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
module Detector = Bwc_core.Detector
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

(* ----- detector ----- *)

let enc_detector w (d : Detector.dump) =
  W.tag w "detector";
  W.int w d.Detector.d_config.Detector.heartbeat_every;
  W.int w d.Detector.d_config.Detector.suspect_after;
  W.int w d.Detector.d_config.Detector.confirm_after;
  W.int w d.Detector.d_config.Detector.jitter;
  W.i64 w d.Detector.d_rng;
  W.list w
    (fun (e : Detector.edge_dump) ->
      W.int w e.Detector.d_watcher;
      W.int w e.Detector.d_peer;
      W.int w e.Detector.d_last_heard;
      W.int w
        (match e.Detector.d_state with
        | Detector.Alive -> 0
        | Detector.Suspected -> 1
        | Detector.Confirmed -> 2);
      W.int w e.Detector.d_slack)
    d.Detector.d_edges

let dec_detector r : Detector.dump =
  R.tag r "detector";
  let heartbeat_every = R.int r in
  let suspect_after = R.int r in
  let confirm_after = R.int r in
  let jitter = R.int r in
  let d_rng = R.i64 r in
  let d_edges =
    R.list r (fun () ->
        let d_watcher = R.int r in
        let d_peer = R.int r in
        let d_last_heard = R.int r in
        let d_state =
          match R.int r with
          | 0 -> Detector.Alive
          | 1 -> Detector.Suspected
          | 2 -> Detector.Confirmed
          | v -> Codec.corrupt "unknown detector state %d" v
        in
        let d_slack = R.int r in
        { Detector.d_watcher; d_peer; d_last_heard; d_state; d_slack })
  in
  {
    Detector.d_config =
      { Detector.heartbeat_every; suspect_after; confirm_after; jitter };
    d_rng;
    d_edges;
  }

(* ----- protocol ----- *)

let enc_info w (ni : Node_info.t) =
  W.int w ni.Node_info.host;
  W.array w (enc_label w) ni.Node_info.labels

let dec_info r =
  let host = R.int r in
  let labels = R.array r (fun () -> dec_label r) in
  Node_info.make ~host ~labels

let enc_int_assoc w items =
  W.list w
    (fun (k, v) ->
      W.int w k;
      W.int w v)
    items

let dec_int_assoc r =
  R.list r (fun () ->
      let k = R.int r in
      let v = R.int r in
      (k, v))

let enc_protocol w (d : Protocol.dump) =
  W.tag w "protocol";
  W.int w d.Protocol.d_n_cut;
  W.int w d.Protocol.d_resend_timeout;
  W.int w d.Protocol.d_max_retransmits;
  W.int w d.Protocol.d_rounds;
  W.int w d.Protocol.d_epoch;
  W.int w d.Protocol.d_engine_round;
  W.i64 w d.Protocol.d_engine_rng;
  W.list w
    (fun (nd : Protocol.node_dump) ->
      W.int w nd.Protocol.nd_id;
      W.bool w nd.Protocol.nd_active;
      W.bool w nd.Protocol.nd_dirty;
      W.array w (W.int w) nd.Protocol.nd_own_row;
      W.list w
        (fun (peer, infos) ->
          W.int w peer;
          W.list w (enc_info w) infos)
        nd.Protocol.nd_aggr_node;
      W.list w
        (fun (peer, row) ->
          W.int w peer;
          W.array w (W.int w) row)
        nd.Protocol.nd_aggr_crt;
      W.list w
        (fun (o : Protocol.out_dump) ->
          W.int w o.Protocol.o_peer;
          W.int w o.Protocol.o_epoch;
          W.int w o.Protocol.o_seq;
          W.list w (enc_info w) o.Protocol.o_prop_node;
          W.array w (W.int w) o.Protocol.o_prop_crt;
          W.int w o.Protocol.o_sent_round;
          W.int w o.Protocol.o_tries;
          W.bool w o.Protocol.o_acked;
          W.bool w o.Protocol.o_gave_up)
        nd.Protocol.nd_out;
      enc_int_assoc w nd.Protocol.nd_seen_seq;
      enc_int_assoc w nd.Protocol.nd_link_epoch;
      enc_int_assoc w nd.Protocol.nd_last_sent)
    d.Protocol.d_nodes;
  W.option w (enc_detector w) d.Protocol.d_detector

let dec_protocol r : Protocol.dump =
  R.tag r "protocol";
  let d_n_cut = R.int r in
  let d_resend_timeout = R.int r in
  let d_max_retransmits = R.int r in
  let d_rounds = R.int r in
  let d_epoch = R.int r in
  let d_engine_round = R.int r in
  let d_engine_rng = R.i64 r in
  let d_nodes =
    R.list r (fun () ->
        let nd_id = R.int r in
        let nd_active = R.bool r in
        let nd_dirty = R.bool r in
        let nd_own_row = R.array r (fun () -> R.int r) in
        let nd_aggr_node =
          R.list r (fun () ->
              let peer = R.int r in
              let infos = R.list r (fun () -> dec_info r) in
              (peer, infos))
        in
        let nd_aggr_crt =
          R.list r (fun () ->
              let peer = R.int r in
              let row = R.array r (fun () -> R.int r) in
              (peer, row))
        in
        let nd_out =
          R.list r (fun () ->
              let o_peer = R.int r in
              let o_epoch = R.int r in
              let o_seq = R.int r in
              let o_prop_node = R.list r (fun () -> dec_info r) in
              let o_prop_crt = R.array r (fun () -> R.int r) in
              let o_sent_round = R.int r in
              let o_tries = R.int r in
              let o_acked = R.bool r in
              let o_gave_up = R.bool r in
              {
                Protocol.o_peer;
                o_epoch;
                o_seq;
                o_prop_node;
                o_prop_crt;
                o_sent_round;
                o_tries;
                o_acked;
                o_gave_up;
              })
        in
        let nd_seen_seq = dec_int_assoc r in
        let nd_link_epoch = dec_int_assoc r in
        let nd_last_sent = dec_int_assoc r in
        {
          Protocol.nd_id;
          nd_active;
          nd_dirty;
          nd_own_row;
          nd_aggr_node;
          nd_aggr_crt;
          nd_out;
          nd_seen_seq;
          nd_link_epoch;
          nd_last_sent;
        })
  in
  let d_detector = R.option r (fun () -> dec_detector r) in
  {
    Protocol.d_n_cut;
    d_resend_timeout;
    d_max_retransmits;
    d_rounds;
    d_epoch;
    d_engine_round;
    d_engine_rng;
    d_nodes;
    d_detector;
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

(* the kind tag stays in the payload: an image of the retired static
   ["system"] kind is refused like any other corruption *)
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
