module Ensemble = Bwc_predtree.Ensemble
module Framework = Bwc_predtree.Framework
module Anchor = Bwc_predtree.Anchor
module Engine = Bwc_sim.Engine
module Fault = Bwc_sim.Fault
module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace
module Rng = Bwc_stats.Rng
module Space = Bwc_metric.Space

type payload = {
  prop_node : Node_info.t list;
  prop_crt : int array;
}

let payload_equal a b =
  a.prop_crt = b.prop_crt
  && List.compare Node_info.compare a.prop_node b.prop_node = 0

(* Updates carry a per-link sequence number so that receivers can discard
   duplicates and out-of-order copies (fault jitter breaks link FIFO-ness);
   acks echo the highest sequence seen so senders can retire their
   retransmission state.  Both additionally carry the link's repair epoch:
   self-healing resets a link's state, and anything still in flight from
   before the reset must not be applied against the fresh numbering.
   Heartbeats carry nothing — they only renew failure-detector leases. *)
type message =
  | Update of { epoch : int; seq : int; payload : payload }
  | Ack of { epoch : int; seq : int }
  | Heartbeat

type out_entry = {
  mutable epoch : int;
  mutable seq : int;
  mutable payload : payload;
  mutable sent_round : int;
  mutable tries : int; (* retransmissions spent on the current seq *)
  mutable acked : bool;
  mutable gave_up : bool; (* retired unacked after max_retransmits *)
}

(* One overlay neighbour m: aggrNode[m] and aggrCRT[m] arrive together as
   the payload of m's last applied update, kept with its sequence number,
   beside the last update sent to m and, with a failure detector, the
   lease on m.  A repair epoch or a send round is [None] until first set. *)
type link = {
  peer : Node_info.t;
  mutable delivered : (int * payload) option;
  mutable out : out_entry option;
  mutable link_epoch : int option;
  mutable last_sent : int option;
  mutable lease : Detector.lease option;
}

type node = {
  id : int;
  info : Node_info.t;
  mutable links : link list;                        (* Ensemble.anchor_neighbors order *)
  link_of : (int, link) Hashtbl.t;                  (* peer host -> its link *)
  mutable own_row : int array;                      (* aggrCRT[self] *)
  (* V_x with its pairwise label distances, kept across rounds: [None]
     until the first read, rebuilt on the first read once [stale] *)
  mutable space : (Node_info.t array * Space.t) option;
  mutable stale : bool;
  (* V_x may have changed since [own_row] and the propNode lists were
     last recomputed *)
  mutable moved : bool;
  mutable dirty : bool;
  (* what flavour of traffic the next dirty flush is: Aggregate in steady
     state, escalated to Invalidate/Repair by self-healing so trace
     attribution can split the byte budget by cause *)
  mutable dirty_kind : Trace.msg_kind;
}

type t = {
  fw : Ensemble.t;
  classes : Classes.t;
  n_cut : int;
  nodes : node option array; (* indexed by host id; None = not a member *)
  engine : message Engine.t;
  detector : Detector.t option;
  trace : Trace.t option;
  mutable rounds : int;
  mutable epoch : int;               (* bumped by every repair round *)
  mutable on_evict : int -> unit;    (* observer of detector/repair evictions *)
  mutable unacked : int;             (* live out entries awaiting an ack, system-wide *)
  mutable step_changed : bool;       (* any node changed state this round *)
  slot : int array;                  (* host -> index in one V_x, -1 outside a use *)
  c_retransmissions : Registry.Counter.t;
  c_dup_suppressed : Registry.Counter.t;
  c_stale_discarded : Registry.Counter.t;
  c_give_up : Registry.Counter.t;
  c_heartbeats : Registry.Counter.t;
  c_epoch_discarded : Registry.Counter.t;
  c_repairs : Registry.Counter.t;
  c_regrafts : Registry.Counter.t;
  g_unacked : Registry.Gauge.t;
  h_query_hops : Registry.Histogram.t;
  c_query_retries : Registry.Counter.t;
  c_query_hits : Registry.Counter.t;
  c_query_misses : Registry.Counter.t;
}

let node_of_host fw host = Node_info.make ~host ~labels:(Ensemble.labels fw host)

let peer_of l = l.peer.Node_info.host
let epoch_of l = Option.value ~default:0 l.link_epoch

(* the link's last update awaits an ack, counted in [t.unacked] *)
let awaits_ack l =
  match l.out with Some e -> (not e.acked) && not e.gave_up | None -> false

(* V_x may have changed: rebuild the space on its next read, and recount
   on the next changed step *)
let v_x_moved node =
  node.stale <- true;
  node.moved <- true

(* Re-reads [node]'s overlay neighbours: a kept link keeps its record, a
   new one starts empty, and a dropped one goes with its update and its
   lease; returns how many dropped updates awaited an ack.  V_x moves
   only where a dropped link had delivered an aggrNode list: a new link
   has delivered nothing, and the anchor tree keeps kept links in their
   relative order (it prepends a newcomer or a regrafted child). *)
let renew_links fw node =
  let old = node.links in
  node.links <-
    List.map
      (fun h ->
        match Hashtbl.find_opt node.link_of h with
        | Some l -> l
        | None ->
            { peer = node_of_host fw h; delivered = None; out = None; link_epoch = None;
              last_sent = None; lease = None })
      (Ensemble.anchor_neighbors fw node.id);
  Hashtbl.clear node.link_of;
  List.iter (fun l -> Hashtbl.replace node.link_of (peer_of l) l) node.links;
  List.fold_left
    (fun retired l ->
      if Hashtbl.mem node.link_of (peer_of l) then retired
      else begin
        if Option.is_some l.delivered then v_x_moved node;
        if awaits_ack l then retired + 1 else retired
      end)
    0 old

let fresh_node fw classes host =
  let node =
    {
      id = host;
      info = node_of_host fw host;
      links = [];
      link_of = Hashtbl.create 8;
      own_row = Array.make (Classes.count classes) 1;
      space = None;
      stale = true;
      moved = true;
      dirty = true;
      dirty_kind = Trace.Aggregate;
    }
  in
  let (_ : int) = renew_links fw node in
  node

(* Retransmission pacing: an update stays unacknowledged [resend_timeout]
   rounds before it is resent, and after [max_retransmits] fruitless
   resends the sender gives up on the peer. *)
let resend_timeout = 3
let max_retransmits = 16

(* The one constructor behind [create] and [of_dump]: they differ only in
   the state the nodes, engine and detector start from.  A host without a
   slot is no member, so its engine slot is inactive. *)
let make ~fw ~classes ~n_cut ~nodes ~engine ~detector ~trace ~metrics ~rounds ~epoch
    ~unacked =
  Array.iteri (fun h slot -> if slot = None then Engine.set_active engine h false) nodes;
  {
    fw;
    classes;
    n_cut;
    nodes;
    engine;
    detector;
    trace;
    rounds;
    epoch;
    on_evict = ignore;
    unacked;
    step_changed = false;
    slot = Array.make (Array.length nodes) (-1);
    c_retransmissions = Registry.counter metrics "protocol.retransmissions";
    c_dup_suppressed = Registry.counter metrics "protocol.dup_suppressed";
    c_stale_discarded = Registry.counter metrics "protocol.stale_discarded";
    c_give_up = Registry.counter metrics "protocol.give_up";
    c_heartbeats = Registry.counter metrics "protocol.heartbeats";
    c_epoch_discarded = Registry.counter metrics "protocol.epoch_discarded";
    c_repairs = Registry.counter metrics "protocol.repairs";
    c_regrafts = Registry.counter metrics "protocol.regrafts";
    g_unacked = Registry.gauge metrics "protocol.unacked";
    h_query_hops = Registry.histogram metrics "query.hops";
    c_query_retries = Registry.counter metrics "query.retries";
    c_query_hits = Registry.counter metrics "query.hits";
    c_query_misses = Registry.counter metrics "query.misses";
  }

let create ~rng ?(n_cut = 10) ?edge_delay ?faults ?detector ?metrics ?trace ~classes fw =
  if n_cut < 1 then invalid_arg "Protocol.create: n_cut < 1";
  let metrics = match metrics with Some m -> m | None -> Registry.create () in
  let detector =
    (* the split keeps the engine's stream untouched relative to
       detector-less runs only when no detector is requested *)
    match detector with
    | None -> None
    | Some cfg -> Some (Detector.create ~metrics ?trace ~rng:(Rng.split rng) cfg)
  in
  let engine = Engine.create ?edge_delay ?faults ~metrics ?trace ~rng (Ensemble.hosts fw) in
  let nodes =
    Array.init (Ensemble.hosts fw) (fun h ->
        if Ensemble.is_member fw h then Some (fresh_node fw classes h) else None)
  in
  Option.iter
    (fun d ->
      Array.iter
        (Option.iter (fun node ->
             List.iter (fun l -> l.lease <- Some (Detector.lease d ~round:0)) node.links))
        nodes)
    detector;
  make ~fw ~classes ~n_cut ~nodes ~engine ~detector ~trace ~metrics ~rounds:0 ~epoch:0
    ~unacked:0

let get_node t x =
  match t.nodes.(x) with
  | Some node -> node
  | None -> invalid_arg "Protocol: host is not a member"

let metrics t = Engine.metrics t.engine

let emit t ev = match t.trace with Some tr -> Trace.emit tr ev | None -> ()

(* ----- traffic labelling (trace attribution) -----

   Estimated wire sizes, a deterministic function of the message alone:
   8 bytes per scalar (host ids, CRT entries, epoch/seq), 24 per label
   entry (host + two geometry floats), 24 of framing on updates/acks.
   The absolute scale is nominal; what the analyzer cares about is the
   relative split across kinds. *)

let heartbeat_bytes = 8
let ack_bytes = 24
let query_hop_bytes = 16

let info_bytes (i : Node_info.t) =
  Array.fold_left (fun acc l -> acc + (24 * Array.length l)) 8 i.Node_info.labels

let payload_bytes p =
  List.fold_left
    (fun acc i -> acc + info_bytes i)
    (8 * Array.length p.prop_crt)
    p.prop_node

let message_bytes = function
  | Heartbeat -> heartbeat_bytes
  | Ack _ -> ack_bytes
  | Update { payload; _ } -> 24 + payload_bytes payload

(* dirty-kind escalation: self-healing outranks steady-state aggregation
   (Repair > Invalidate > Aggregate); point kinds never travel here *)
let kind_rank = function
  | Trace.Repair -> 2
  | Trace.Invalidate -> 1
  | Trace.Aggregate | Trace.Heartbeat | Trace.Ack | Trace.Retransmit | Trace.Query -> 0

let mark_dirty node kind =
  node.dirty <- true;
  if kind_rank kind > kind_rank node.dirty_kind then node.dirty_kind <- kind

(* every protocol send renews the sender-side idle clock that gates
   heartbeats, so heartbeats only fill genuinely silent gaps *)
let send_msg t node l ~kind msg =
  l.last_sent <- Some (Engine.round t.engine);
  Engine.send t.engine ~src:node.id ~dst:(peer_of l) ~kind ~bytes:(message_bytes msg) msg

(* ----- local state recomputation (Algorithm 3, lines 3-8) ----- *)

(* V_x = {x} union aggrNode[v] for every neighbor v, deduplicated. *)
let clustering_space_node node =
  let seen = Hashtbl.create 32 in
  let acc = ref [] in
  let consider info =
    if not (Hashtbl.mem seen info.Node_info.host) then begin
      Hashtbl.add seen info.Node_info.host ();
      acc := info :: !acc
    end
  in
  consider node.info;
  List.iter
    (fun l -> Option.iter (fun (_, p) -> List.iter consider p.prop_node) l.delivered)
    node.links;
  Array.of_list (List.rev !acc)

(* [t.slot] holds, for each host of one V_x, its index there; it is set
   for one use and reset after it *)
let set_slots t infos = Array.iteri (fun i info -> t.slot.(info.Node_info.host) <- i) infos
let clear_slots t infos = Array.iter (fun info -> t.slot.(info.Node_info.host) <- -1) infos

(* [info]'s index in the V_x [infos] whose slots are set, or -1: a
   host's slot counts only while it holds the same labels *)
let slot_of t infos info =
  let i = t.slot.(info.Node_info.host) in
  if i >= 0 && Node_info.compare infos.(i) info = 0 then i else -1

(* A rebuild copies each pair's distance from the previous matrix when
   that V_x held both infos, and evaluates label medians only for pairs
   with a new info.  Label distances are symmetric bit for bit, so a
   copy equals a fresh evaluation in whichever order the pair now
   stands. *)
let clustering_space t node =
  match node.space with
  | Some cached when not node.stale -> cached
  | prev ->
      let infos = clustering_space_node node in
      let space =
        match prev with
        | None -> Node_info.space_of infos
        | Some (old_infos, old) ->
            set_slots t old_infos;
            let src = Array.map (slot_of t old_infos) infos in
            clear_slots t old_infos;
            Space.make ~n:(Array.length infos) ~dist:(fun i j ->
                let a = src.(i) and b = src.(j) in
                if a >= 0 && b >= 0 then Float.Array.get old.Space.d ((a * old.Space.n) + b)
                else Node_info.dist infos.(i) infos.(j))
      in
      let cached = (infos, space) in
      node.space <- Some cached;
      node.stale <- false;
      cached

(* Runs on the first changed step after V_x moved, cached space or not:
   a query may have rebuilt the space in between. *)
let recompute_own_row t node =
  let _, space = clustering_space t node in
  node.own_row <- Find_cluster.max_sizes space ~ls:(Classes.distances t.classes)

(* ----- message construction ----- *)

(* Algorithm 2: the n_cut hosts closest to the recipient among
   {x} union aggrNode[v] for v <> recipient.  [infos] is V_x, its slots
   set, and [space] its distances: a candidate that V_x holds, sent to a
   recipient that V_x holds, has its distance read from the recipient's
   row. *)
let prop_node_for t node (infos, space) ~recipient =
  let seen = Hashtbl.create 32 in
  let acc = ref [] in
  let consider info =
    let h = info.Node_info.host in
    if h <> recipient.Node_info.host && not (Hashtbl.mem seen h) then begin
      Hashtbl.add seen h ();
      acc := info :: !acc
    end
  in
  consider node.info;
  List.iter
    (fun l ->
      if peer_of l <> recipient.Node_info.host then
        Option.iter (fun (_, p) -> List.iter consider p.prop_node) l.delivered)
    node.links;
  (* decorate-sort: each candidate's distance is computed once, and the
     sort makes the same comparisons on the same keys as sorting the bare
     infos by distance would, so ties land in the same order *)
  let r = slot_of t infos recipient in
  let dist info =
    let c = if r < 0 then -1 else slot_of t infos info in
    if c < 0 then Node_info.dist recipient info
    else Float.Array.get space.Space.d ((r * space.Space.n) + c)
  in
  let cand = Array.of_list (List.map (fun info -> (dist info, info)) !acc) in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) cand;
  List.init (Int.min t.n_cut (Array.length cand)) (fun i -> snd cand.(i))

(* Algorithm 3, lines 9-10: max over own row and every other neighbor's
   aggregated column. *)
let prop_crt_for node ~recipient =
  let out = Array.copy node.own_row in
  List.iter
    (fun l ->
      match l.delivered with
      | Some (_, p) when peer_of l <> recipient.Node_info.host ->
          Array.iteri (fun i v -> if v > out.(i) then out.(i) <- v) p.prop_crt
      | Some _ | None -> ())
    node.links;
  out

let send_updates t node =
  let now = Engine.round t.engine in
  let ((infos, _) as v_x) = clustering_space t node in
  set_slots t infos;
  List.iter
    (fun l ->
      let le = epoch_of l in
      let prop_node =
        match l.out with
        | Some entry when (not node.moved) && entry.epoch = le ->
            (* V_x has not moved since this link's last update, which
               carried the propNode it would recompute *)
            entry.payload.prop_node
        | Some _ | None -> prop_node_for t node v_x ~recipient:l.peer
      in
      let payload = { prop_node; prop_crt = prop_crt_for node ~recipient:l.peer } in
      match l.out with
      | Some entry when entry.epoch = le && payload_equal entry.payload payload ->
          (* nothing new; if unacked the resend timer covers the loss *)
          ()
      | Some entry ->
          entry.seq <- (if entry.epoch = le then entry.seq + 1 else 0);
          entry.epoch <- le;
          entry.payload <- payload;
          entry.sent_round <- now;
          entry.tries <- 0;
          if entry.gave_up then begin
            (* fresh content revives a given-up link: the peer may only
               have been unreachable, and the bound restarts per update *)
            entry.gave_up <- false;
            t.unacked <- t.unacked + 1
          end
          else if entry.acked then t.unacked <- t.unacked + 1;
          entry.acked <- false;
          send_msg t node l ~kind:node.dirty_kind
            (Update { epoch = le; seq = entry.seq; payload })
      | None ->
          l.out <-
            Some
              {
                epoch = le;
                seq = 0;
                payload;
                sent_round = now;
                tries = 0;
                acked = false;
                gave_up = false;
              };
          t.unacked <- t.unacked + 1;
          send_msg t node l ~kind:node.dirty_kind (Update { epoch = le; seq = 0; payload }))
    node.links;
  clear_slots t infos

(* Timeout-based retransmission: an unacked update is re-sent verbatim
   every [resend_timeout] rounds, so the aggregation survives message
   loss and crash windows.  After [max_retransmits] fruitless tries the
   sender gives up — the entry is retired from the unacked count (the
   peer is presumed dead; quiescence must not hinge on it) but kept, so
   any later sign of life from the peer revives it. *)
let resend_pending t node =
  let now = Engine.round t.engine in
  let due =
    List.filter_map
      (fun l ->
        match l.out with
        | Some e when awaits_ack l && now - e.sent_round >= resend_timeout -> Some (l, e)
        | Some _ | None -> None)
      node.links
  in
  (* ascending peer id: the send order decides in-flight FIFO order
     within a delivery round *)
  List.iter
    (fun (l, entry) ->
      if entry.tries >= max_retransmits then begin
        entry.gave_up <- true;
        t.unacked <- t.unacked - 1;
        Registry.Counter.incr t.c_give_up
      end
      else begin
        entry.tries <- entry.tries + 1;
        entry.sent_round <- now;
        Registry.Counter.incr t.c_retransmissions;
        emit t (Trace.Retransmit { round = now; src = node.id; dst = peer_of l });
        send_msg t node l ~kind:Trace.Retransmit
          (Update { epoch = entry.epoch; seq = entry.seq; payload = entry.payload })
      end)
    (List.sort (fun (a, _) (b, _) -> Int.compare (peer_of a) (peer_of b)) due)

(* a message from a peer we had given up on proves it alive: restore the
   entry to the unacked pool and let the resend timer fire immediately *)
let revive_given_up t l =
  match l.out with
  | Some entry when entry.gave_up ->
      entry.gave_up <- false;
      entry.tries <- 0;
      entry.sent_round <- Engine.round t.engine - resend_timeout;
      t.unacked <- t.unacked + 1
  | Some _ | None -> ()

let send_heartbeats t node =
  match t.detector with
  | None -> ()
  | Some d ->
      let hb = (Detector.config d).Detector.heartbeat_every in
      let now = Engine.round t.engine in
      List.iter
        (fun l ->
          let last = Option.value ~default:(Stdlib.min_int / 2) l.last_sent in
          if now - last >= hb then begin
            Registry.Counter.incr t.c_heartbeats;
            send_msg t node l ~kind:Trace.Heartbeat Heartbeat
          end)
        node.links

(* ----- round driver ----- *)

let apply_update t node ~src ~epoch ~seq payload =
  match Hashtbl.find_opt node.link_of src with
  | None ->
      (* in-flight leftover of a link self-healing already tore down *)
      Registry.Counter.incr t.c_epoch_discarded;
      false
  | Some l ->
      let link_e = epoch_of l in
      if epoch < link_e then begin
        (* predates the link's last repair reset: the fresh numbering must
           not be contaminated by the old epoch's sequence space *)
        Registry.Counter.incr t.c_epoch_discarded;
        false
      end
      else begin
        (* a newer epoch means the sender re-established the link first:
           adopt its epoch and restart the per-link numbering *)
        let seen =
          match l.delivered with
          | Some (s, _) when epoch = link_e -> s
          | Some _ | None -> -1
        in
        if epoch > link_e then l.link_epoch <- Some epoch;
        if seq < seen then begin
          (* out-of-order copy superseded by something already applied *)
          Registry.Counter.incr t.c_stale_discarded;
          send_msg t node l ~kind:Trace.Ack (Ack { epoch; seq = seen });
          false
        end
        else if seq = seen then begin
          (* duplicate: the aggregation merge is idempotent, so re-applying
             must be a no-op — check that the stored state already equals the
             payload, then just re-ack (the previous ack may have been lost) *)
          Registry.Counter.incr t.c_dup_suppressed;
          assert (
            match l.delivered with
            | Some (_, prev) -> payload_equal prev payload
            | None -> false);
          send_msg t node l ~kind:Trace.Ack (Ack { epoch; seq = seen });
          false
        end
        else begin
          send_msg t node l ~kind:Trace.Ack (Ack { epoch; seq });
          (* a part that compares equal is kept, not replaced:
             [Node_info.compare] equates 0.0 and -0.0, which images tell
             apart *)
          let kept, node_diff, crt_diff =
            match l.delivered with
            | None -> (payload, true, true)
            | Some (_, prev) ->
                let node_diff =
                  List.compare Node_info.compare prev.prop_node payload.prop_node <> 0
                in
                let crt_diff = prev.prop_crt <> payload.prop_crt in
                ( {
                    prop_node = (if node_diff then payload else prev).prop_node;
                    prop_crt = (if crt_diff then payload else prev).prop_crt;
                  },
                  node_diff,
                  crt_diff )
          in
          l.delivered <- Some (seq, kept);
          if node_diff then v_x_moved node;
          node_diff || crt_diff
        end
      end

let apply_ack t node ~src ~epoch ~seq =
  match Hashtbl.find_opt node.link_of src with
  | Some { out = Some entry; _ }
    when (not entry.acked) && epoch = entry.epoch && seq = entry.seq ->
      entry.acked <- true;
      if entry.gave_up then entry.gave_up <- false
      else t.unacked <- t.unacked - 1
  | Some _ | None -> ()

let step t id inbox =
  match t.nodes.(id) with
  | None -> false
  | Some node ->
  let now = Engine.round t.engine in
  let changed = ref node.dirty in
  List.iter
    (fun (src, msg) ->
      (match Hashtbl.find_opt node.link_of src with
      | Some l ->
          (match l.lease with
          | Some lease -> l.lease <- Some (Detector.heard lease ~round:now)
          | None -> ());
          revive_given_up t l
      | None -> ());
      match msg with
      | Update { epoch; seq; payload } ->
          if apply_update t node ~src ~epoch ~seq payload then changed := true
      | Ack { epoch; seq } -> apply_ack t node ~src ~epoch ~seq
      | Heartbeat -> ())
    inbox;
  if !changed then begin
    if node.moved then recompute_own_row t node;
    send_updates t node;
    node.moved <- false;
    node.dirty <- false;
    node.dirty_kind <- Trace.Aggregate;
    t.step_changed <- true
  end;
  (* with nothing unacked anywhere, no entry is due *)
  if t.unacked > 0 then resend_pending t node;
  send_heartbeats t node;
  !changed

(* ----- self-healing repair (confirmed-dead eviction) ----- *)

(* ancestors aggregate the dead node's subtree through max-merged CRT
   columns; marking the root path dirty forces them to recompute and
   repropagate instead of waiting for the decrease to trickle up *)
let rec mark_root_path t x =
  (match t.nodes.(x) with
  | Some node -> mark_dirty node Trace.Repair
  | None -> ());
  match Anchor.parent (Framework.anchor (Ensemble.primary t.fw)) x with
  | Some p -> mark_root_path t p
  | None -> ()

(* re-read [node]'s links; a dropped update that awaited an ack retires *)
let renew t node = t.unacked <- t.unacked - renew_links t.fw node

(* establish the live link [a]<->[b] at the current repair epoch, with a
   fresh lease, and mark both ends dirty with [kind].  Links are the
   caller's to re-read first, once per node however many of its links
   moved, so each end holds a fresh record for the other. *)
let relink t ~round ~kind a b =
  let half x y =
    match t.nodes.(x) with
    | None -> ()
    | Some node ->
        let l = Hashtbl.find node.link_of y in
        l.link_epoch <- Some t.epoch;
        l.lease <- Option.map (Detector.lease ~round) t.detector;
        mark_dirty node kind
  in
  half a b;
  half b a

(* A join, fresh or a ghost's revival, hangs one leaf under one overlay
   parent ([Framework.add_host]) and moves nothing else: the newcomer
   takes a fresh slot and links with its neighbours.  Every eviction
   clears its slot at once ([repair]), so the members without a slot are
   the newest in insertion order. *)
let refresh_topology t =
  let round = Engine.round t.engine in
  let rec join_newest i =
    if i >= 0 then begin
      let h = Ensemble.member_at t.fw i in
      if t.nodes.(h) = None then begin
        let node = fresh_node t.fw t.classes h in
        t.nodes.(h) <- Some node;
        Engine.set_active t.engine h true;
        List.iter
          (fun l ->
            let y = peer_of l in
            Option.iter (renew t) t.nodes.(y);
            relink t ~round ~kind:Trace.Aggregate h y)
          node.links;
        join_newest (i - 1)
      end
    end
  in
  join_newest (Ensemble.member_count t.fw - 1)

let repair_one t dead_h =
  match t.nodes.(dead_h) with
  | None -> ()
  | Some dnode ->
      let now = Engine.round t.engine in
      Registry.Counter.incr t.c_repairs;
      (* retire the dead node's own pending output from the global count *)
      List.iter (fun l -> if awaits_ack l then t.unacked <- t.unacked - 1) dnode.links;
      let old_nbrs = List.sort compare (List.map peer_of dnode.links) in
      (* local overlay repair: orphans regraft to the grandparent *)
      let regrafts = Ensemble.evict_host t.fw dead_h in
      t.nodes.(dead_h) <- None;
      Engine.set_active t.engine dead_h false;
      (* incremental invalidation: only the dead node's ex-neighbors hold
         direct state about it; on a tree nothing else can echo it back
         (recompute-and-replace propagation overwrites downstream copies),
         so dropping the link and re-propagating re-converges the overlay.
         Both ends of every regraft are ex-neighbours (orphans move to the
         dead node's parent or to a promoted orphan), so this is the one
         re-read each touched node needs *)
      List.iter
        (fun x ->
          Option.iter
            (fun node ->
              renew t node;
              mark_dirty node Trace.Invalidate)
            t.nodes.(x))
        old_nbrs;
      List.iter
        (fun (c, p) ->
          Registry.Counter.incr t.c_regrafts;
          emit t (Trace.Regraft { round = now; node = c; new_parent = p });
          relink t ~round:now ~kind:Trace.Repair c p)
        regrafts;
      List.iter (mark_root_path t) (List.sort_uniq compare (List.map snd regrafts));
      (* membership observers (e.g. a maintained clustering index) apply
         the same eviction as a delta instead of rebuilding *)
      t.on_evict dead_h

let repair t ~dead =
  let dead = List.sort_uniq compare (List.filter (fun h -> t.nodes.(h) <> None) dead) in
  if dead <> [] then begin
    t.epoch <- t.epoch + 1;
    List.iter (repair_one t) dead;
    (* the repair itself is protocol progress: re-aggregation must run *)
    t.step_changed <- true
  end

let set_on_evict t f = t.on_evict <- f

let crash_host t h =
  let (_ : node) = get_node t h in
  emit t (Trace.Crash { round = Engine.round t.engine; node = h });
  Engine.set_active t.engine h false

(* The detector's end-of-round pass: members ascending, each member's
   links by ascending peer id, so transitions, their trace events and the
   repairs they start come in one order.  A crashed watcher hears
   nothing, so its frozen leases are not advanced.  Returns the peers
   newly confirmed dead, sorted and deduplicated. *)
let expire_leases t d ~round =
  let confirmed = ref [] in
  Array.iter
    (Option.iter (fun node ->
         if Engine.is_active t.engine node.id then
           List.iter
             (fun l ->
               match l.lease with
               | Some lease ->
                   let next = Detector.advance d ~round ~watcher:node.id ~peer:(peer_of l) lease in
                   if next.Detector.state <> lease.Detector.state then begin
                     l.lease <- Some next;
                     if next.Detector.state = Detector.Confirmed then
                       confirmed := peer_of l :: !confirmed
                   end
               | None -> ())
             (List.sort (fun a b -> Int.compare (peer_of a) (peer_of b)) node.links)))
    t.nodes;
  List.sort_uniq compare !confirmed

(* some lease is running towards expiry, a crashed watcher's included *)
let leases_pending t d =
  let round = Engine.round t.engine in
  Array.exists
    (function
      | Some node ->
          List.exists
            (fun l ->
              match l.lease with Some lease -> Detector.overdue d ~round lease | None -> false)
            node.links
      | None -> false)
    t.nodes

let quiescent t =
  t.unacked = 0
  && Array.for_all (function Some node -> not node.dirty | None -> true) t.nodes
  &&
  match t.detector with
  | None -> true
  | Some d -> not (leases_pending t d)

let run_round t =
  t.step_changed <- false;
  let active = Engine.run_round t.engine ~step:(step t) in
  t.rounds <- t.rounds + 1;
  Registry.Gauge.set t.g_unacked t.unacked;
  match t.detector with
  | None ->
      (* unacked updates keep the protocol live even across quiet rounds
         between retransmission timeouts *)
      active || t.unacked > 0
  | Some d ->
      repair t ~dead:(expire_leases t d ~round:(Engine.round t.engine));
      (* heartbeats keep the engine's in-flight count permanently
         non-zero, so the engine's own activity notion is useless here:
         the protocol is live while state changed, updates await acks, or
         a detector lease is running out *)
      t.step_changed || t.unacked > 0 || leases_pending t d

let run_aggregation ?max_rounds t =
  let max_rounds =
    match max_rounds with Some m -> m | None -> Stdlib.max 8 (4 * Array.length t.nodes)
  in
  let rec loop r =
    if r >= max_rounds then r
    else if run_round t then loop (r + 1)
    else begin
      emit t (Trace.Quiesce { round = Engine.round t.engine });
      r + 1
    end
  in
  loop 0

(* ----- queries (Algorithm 4) ----- *)

(* failure-detector detour: directions under suspicion become last
   resorts — probably dead, but not yet written off *)
let detour t node ordered =
  match t.detector with
  | None -> ordered
  | Some _ ->
      let suspected, healthy =
        List.partition
          (fun (h, _) ->
            match (Hashtbl.find node.link_of h).lease with
            | Some lease -> Detector.suspects lease
            | None -> false)
          ordered
      in
      healthy @ suspected

let local_find t node ~k ~cls =
  let infos, space = clustering_space t node in
  match Find_cluster.find space ~k ~l:(Classes.distance t.classes cls) with
  | None -> None
  | Some idxs -> Some (List.map (fun i -> infos.(i).Node_info.host) idxs)

(* hop retransmissions over a lossy link before the router falls back *)
let hop_retries = 2

let query ?(policy = `Best_crt) t ~at ~k ~cls =
  if k < 2 then invalid_arg "Protocol.query: k < 2";
  if cls < 0 || cls >= Classes.count t.classes then invalid_arg "Protocol.query: bad class";
  (* a walk on the anchor tree never returns to its sender, so it takes
     at most members - 1 hops: n hops cannot bind *)
  let hop_budget = Array.length t.nodes in
  let faults = Engine.faults t.engine in
  let round = Engine.round t.engine in
  let retries_used = ref 0 in
  let result cluster ~path =
    let hops = List.length path - 1 in
    Registry.Histogram.observe t.h_query_hops hops;
    Registry.Counter.incr ~by:!retries_used t.c_query_retries;
    Registry.Counter.incr
      (if cluster = None then t.c_query_misses else t.c_query_hits);
    { Query.cluster; hops; retries = !retries_used; path = List.rev path }
  in
  (* A hop to a dead or partitioned neighbor fails outright; a lossy link
     gets up to [hop_retries] retransmissions before the router falls back
     to the next qualifying neighbor. *)
  let rec first_reachable x = function
    | [] -> None
    | h :: rest ->
        if not (Engine.is_active t.engine h) then first_reachable x rest
        else if Fault.partitioned faults ~round ~src:x ~dst:h then first_reachable x rest
        else begin
          let rec attempt tries_left =
            if not (Fault.sample_loss faults) then true
            else if tries_left = 0 then false
            else begin
              incr retries_used;
              attempt (tries_left - 1)
            end
          in
          if attempt hop_retries then Some h else first_reachable x rest
        end
  in
  let rec go x ~from ~path ~budget =
    let node = get_node t x in
    if node.own_row.(cls) >= k then result (local_find t node ~k ~cls) ~path
    else if budget = 0 then result None ~path
    else begin
      (* Forward to a neighbor claiming a big-enough cluster in its
         direction, never back to the sender.  The paper allows "any"
         such neighbor; `Best_crt orders directions by promised cluster
         size, `First keeps neighbor order.  Later candidates are
         fallbacks for dead, partitioned or persistently lossy hops. *)
      let qualifying =
        List.filter_map
          (fun l ->
            let h = peer_of l in
            match l.delivered with
            | Some (_, p) when Some h <> from && p.prop_crt.(cls) >= k ->
                Some (h, p.prop_crt.(cls))
            | Some _ | None -> None)
          node.links
      in
      let ordered =
        match policy with
        | `First -> qualifying
        | `Best_crt ->
            (* stable sort: equal promises keep neighbor order *)
            List.stable_sort (fun (_, a) (_, b) -> compare b a) qualifying
      in
      match first_reachable x (List.map fst (detour t node ordered)) with
      | Some next ->
          emit t
            (Trace.Query_hop
               { round; msg = Engine.fresh_msg_id t.engine;
                 bytes = query_hop_bytes; src = x; dst = next });
          go next ~from:(Some x) ~path:(next :: path) ~budget:(budget - 1)
      | None -> result None ~path
    end
  in
  (* a non-member is a caller error (raises); a member that is merely
     crashed right now is a runtime condition (miss) *)
  let (_ : node) = get_node t at in
  if not (Engine.is_active t.engine at) then result None ~path:[ at ]
  else go at ~from:None ~path:[ at ] ~budget:hop_budget

let query_bandwidth ?policy t ~at ~k ~b =
  match Classes.class_for t.classes ~b with
  | Some cls -> query ?policy t ~at ~k ~cls
  | None -> Query.not_found_at at

let crt_row t x v =
  let node = get_node t x in
  if v = x then Array.copy node.own_row
  else
    match Hashtbl.find_opt node.link_of v with
    | None -> raise Not_found
    | Some { delivered = Some (_, p); _ } -> Array.copy p.prop_crt
    | Some { delivered = None; _ } -> Array.make (Classes.count t.classes) 0

let max_reachable t x ~cls =
  let node = get_node t x in
  List.fold_left
    (fun acc l ->
      match l.delivered with Some (_, p) -> Int.max acc p.prop_crt.(cls) | None -> acc)
    node.own_row.(cls) node.links

let messages_sent t = Engine.messages_sent t.engine
let rounds_run t = t.rounds
let give_ups t = Registry.Counter.value t.c_give_up
let heartbeats_sent t = Registry.Counter.value t.c_heartbeats
let repairs_run t = Registry.Counter.value t.c_repairs
let regrafts_applied t = Registry.Counter.value t.c_regrafts

let mark_all_dirty t =
  Array.iter (function Some node -> node.dirty <- true | None -> ()) t.nodes

(* ----- persistence -----

   The dump is the durable per-node state only.  In-flight engine traffic
   is deliberately absent: a whole-system crash loses the network, and
   that is exactly the loss the seq/ACK + retransmission layer already
   recovers from — unacked out entries resume their resend timers after a
   restore.  A node's links are its overlay neighbours, one record each;
   their node infos are {e not} dumped, they are always derived from the
   ensemble, which travels alongside. *)

type update_dump = { u_seq : int; u_aggr_node : Node_info.t list; u_aggr_crt : int array }

type out_dump = {
  o_epoch : int;
  o_seq : int;
  o_prop_node : Node_info.t list;
  o_prop_crt : int array;
  o_sent_round : int;
  o_tries : int;
  o_acked : bool;
  o_gave_up : bool;
}

type link_dump = {
  l_peer : int;
  l_delivered : update_dump option;
  l_out : out_dump option;
  l_epoch : int option;
  l_last_sent : int option;
  l_lease : Detector.lease option;
}

type node_dump = {
  nd_id : int;
  nd_active : bool; (* engine liveness: a crashed-but-not-evicted member *)
  nd_dirty : bool;
  nd_own_row : int array;
  nd_links : link_dump list; (* Ensemble.anchor_neighbors order *)
}

type dump = {
  d_n_cut : int;
  d_resend_timeout : int;
  d_max_retransmits : int;
  d_rounds : int;
  d_epoch : int;
  d_engine_round : int;
  d_engine_rng : int64;
  d_nodes : node_dump list; (* ascending host id, members only *)
  d_detector : Detector.dump option;
}

let dump_link l =
  {
    l_peer = peer_of l;
    l_delivered =
      Option.map
        (fun (seq, p) -> { u_seq = seq; u_aggr_node = p.prop_node; u_aggr_crt = p.prop_crt })
        l.delivered;
    l_out =
      Option.map
        (fun (e : out_entry) ->
          {
            o_epoch = e.epoch;
            o_seq = e.seq;
            o_prop_node = e.payload.prop_node;
            o_prop_crt = e.payload.prop_crt;
            o_sent_round = e.sent_round;
            o_tries = e.tries;
            o_acked = e.acked;
            o_gave_up = e.gave_up;
          })
        l.out;
    l_epoch = l.link_epoch;
    l_last_sent = l.last_sent;
    l_lease = l.lease;
  }

let dump t =
  let nodes = ref [] in
  for id = Array.length t.nodes - 1 downto 0 do
    Option.iter
      (fun node ->
        nodes :=
          {
            nd_id = id;
            nd_active = Engine.is_active t.engine id;
            nd_dirty = node.dirty;
            nd_own_row = Array.copy node.own_row;
            nd_links = List.map dump_link node.links;
          }
          :: !nodes)
      t.nodes.(id)
  done;
  {
    d_n_cut = t.n_cut;
    d_resend_timeout = resend_timeout;
    d_max_retransmits = max_retransmits;
    d_rounds = t.rounds;
    d_epoch = t.epoch;
    d_engine_round = Engine.round t.engine;
    d_engine_rng = Engine.rng_state t.engine;
    d_nodes = !nodes;
    d_detector = Option.map Detector.dump t.detector;
  }

let of_dump ?metrics ?trace ~classes fw d =
  let fail fmt = Printf.ksprintf (fun msg -> invalid_arg ("Protocol.of_dump: " ^ msg)) fmt in
  if d.d_n_cut < 1 then fail "n_cut < 1";
  (* the image records the retransmission pacing it ran under; a restored
     protocol runs under this build's constants, so they must agree *)
  if d.d_resend_timeout <> resend_timeout then fail "resend_timeout differs";
  if d.d_max_retransmits <> max_retransmits then fail "max_retransmits differs";
  if d.d_rounds < 0 || d.d_engine_round < 0 || d.d_epoch < 0 then fail "negative clock";
  let n = Ensemble.hosts fw in
  let n_classes = Classes.count classes in
  let n_trees = Ensemble.size fw in
  let metrics = match metrics with Some m -> m | None -> Registry.create () in
  let engine = Engine.create ~metrics ?trace ~rng:(Rng.of_state d.d_engine_rng) n in
  Engine.restore_round engine d.d_engine_round;
  let detector = Option.map (Detector.of_dump ~metrics ?trace) d.d_detector in
  (* membership must match the ensemble exactly: every dumped node a
     member, every member dumped *)
  let dumped_ids = List.map (fun nd -> nd.nd_id) d.d_nodes in
  if List.sort_uniq compare dumped_ids <> dumped_ids then
    fail "node dumps not strictly ascending";
  if dumped_ids <> List.sort compare (Ensemble.members fw) then
    fail "membership disagrees with the ensemble";
  let check_info (info : Node_info.t) =
    if info.Node_info.host < 0 || info.Node_info.host >= n then fail "info host out of range";
    if Array.length info.Node_info.labels <> n_trees then fail "info label arity mismatch"
  in
  let check_row row = if Array.length row <> n_classes then fail "CRT row arity mismatch" in
  let restore_link l ld =
    Option.iter
      (fun u ->
        List.iter check_info u.u_aggr_node;
        check_row u.u_aggr_crt;
        if u.u_seq < 0 then fail "negative seen seq";
        l.delivered <-
          Some (u.u_seq, { prop_node = u.u_aggr_node; prop_crt = Array.copy u.u_aggr_crt }))
      ld.l_delivered;
    Option.iter
      (fun o ->
        if o.o_epoch < 0 || o.o_epoch > d.d_epoch then fail "out entry epoch out of range";
        if o.o_seq < 0 || o.o_tries < 0 then fail "negative out entry field";
        if o.o_sent_round > d.d_engine_round then fail "out entry from the future";
        check_row o.o_prop_crt;
        List.iter check_info o.o_prop_node;
        l.out <-
          Some
            {
              epoch = o.o_epoch;
              seq = o.o_seq;
              payload = { prop_node = o.o_prop_node; prop_crt = Array.copy o.o_prop_crt };
              sent_round = o.o_sent_round;
              tries = o.o_tries;
              acked = o.o_acked;
              gave_up = o.o_gave_up;
            })
      ld.l_out;
    Option.iter (fun e -> if e < 0 || e > d.d_epoch then fail "link epoch out of range") ld.l_epoch;
    l.link_epoch <- ld.l_epoch;
    Option.iter
      (fun r -> if r > d.d_engine_round then fail "send stamp from the future")
      ld.l_last_sent;
    l.last_sent <- ld.l_last_sent;
    (match (ld.l_lease, detector) with
    | Some lease, Some det ->
        if lease.Detector.slack < 0 || lease.Detector.slack > (Detector.config det).Detector.jitter
        then fail "lease slack outside the jitter range"
    | None, None -> ()
    | Some _, None | None, Some _ -> fail "a link's lease disagrees with the detector");
    l.lease <- ld.l_lease
  in
  let nodes = Array.make n None in
  let unacked = ref 0 in
  List.iter
    (fun nd ->
      check_row nd.nd_own_row;
      Array.iter (fun v -> if v < 0 then fail "negative cluster size") nd.nd_own_row;
      let node = fresh_node fw classes nd.nd_id in
      node.own_row <- Array.copy nd.nd_own_row;
      node.dirty <- nd.nd_dirty;
      if List.map (fun ld -> ld.l_peer) nd.nd_links <> List.map peer_of node.links then
        fail "node %d's links are not its overlay neighbours in order" nd.nd_id;
      List.iter2 restore_link node.links nd.nd_links;
      List.iter (fun l -> if awaits_ack l then incr unacked) node.links;
      nodes.(nd.nd_id) <- Some node)
    d.d_nodes;
  (* a receiver that applied seq s under the link's epoch takes a resend
     of the sender's entry with that epoch and seq for a duplicate, which
     must equal the payload it holds *)
  Array.iter
    (Option.iter (fun node ->
         List.iter
           (fun l ->
             match (l.delivered, nodes.(peer_of l)) with
             | Some (seq, held), Some sender -> (
                 match Hashtbl.find_opt sender.link_of node.id with
                 | Some { out = Some e; _ }
                   when e.epoch = epoch_of l && e.seq = seq && not (payload_equal e.payload held) ->
                     fail "node %d holds seq %d from %d with another payload than %d sent"
                       node.id seq sender.id sender.id
                 | Some _ | None -> ())
             | Some _, None | None, _ -> ())
           node.links))
    nodes;
  let t =
    make ~fw ~classes ~n_cut:d.d_n_cut ~nodes ~engine ~detector ~trace ~metrics
      ~rounds:d.d_rounds ~epoch:d.d_epoch ~unacked:!unacked
  in
  (* liveness from the dump, not from membership: a crashed-but-not-yet-
     evicted member restores as crashed *)
  List.iter
    (fun nd -> if not nd.nd_active then Engine.set_active t.engine nd.nd_id false)
    d.d_nodes;
  t

let current_round t = Engine.round t.engine
