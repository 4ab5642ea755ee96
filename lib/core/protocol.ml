module Ensemble = Bwc_predtree.Ensemble
module Framework = Bwc_predtree.Framework
module Anchor = Bwc_predtree.Anchor
module Engine = Bwc_sim.Engine
module Fault = Bwc_sim.Fault
module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace
module Rng = Bwc_stats.Rng

type payload = {
  prop_node : Node_info.t list;
  prop_crt : int array;
}

let payload_equal a b =
  a.prop_crt = b.prop_crt
  && List.compare Node_info.compare_host a.prop_node b.prop_node = 0

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

type node = {
  id : int;
  info : Node_info.t;
  mutable neighbors : Node_info.t list;
  aggr_node : (int, Node_info.t list) Hashtbl.t;    (* neighbor -> received propNode *)
  aggr_crt : (int, int array) Hashtbl.t;            (* neighbor -> received propCRT *)
  mutable own_row : int array;                      (* aggrCRT[self] *)
  (* V_x with its pairwise label distances, kept across rounds; [None]
     wherever V_x may have changed, rebuilt on the next read *)
  mutable space : (Node_info.t array * Bwc_metric.Space.t) option;
  out : (int, out_entry) Hashtbl.t;                 (* neighbor -> last update sent *)
  seen_seq : (int, int) Hashtbl.t;                  (* neighbor -> highest seq received *)
  link_epoch : (int, int) Hashtbl.t;                (* neighbor -> link repair epoch *)
  last_sent : (int, int) Hashtbl.t;                 (* neighbor -> round of last send *)
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

let neighbor_infos fw host =
  List.map (node_of_host fw) (Ensemble.anchor_neighbors fw host)

let fresh_node fw classes host =
  {
    id = host;
    info = node_of_host fw host;
    neighbors = neighbor_infos fw host;
    aggr_node = Hashtbl.create 8;
    aggr_crt = Hashtbl.create 8;
    own_row = Array.make (Classes.count classes) 1;
    space = None;
    out = Hashtbl.create 8;
    seen_seq = Hashtbl.create 8;
    link_epoch = Hashtbl.create 8;
    last_sent = Hashtbl.create 8;
    dirty = true;
    dirty_kind = Trace.Aggregate;
  }

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
  (match detector with
  | None -> ()
  | Some d ->
      Array.iter
        (Option.iter (fun node ->
             List.iter
               (fun nb -> Detector.watch d ~watcher:node.id ~peer:nb.Node_info.host ~round:0)
               node.neighbors))
        nodes);
  make ~fw ~classes ~n_cut ~nodes ~engine ~detector ~trace ~metrics ~rounds:0 ~epoch:0
    ~unacked:0

let get_node t x =
  match t.nodes.(x) with
  | Some node -> node
  | None -> invalid_arg "Protocol: host is not a member"

let metrics t = Engine.metrics t.engine
let detector t = t.detector

let emit t ev = match t.trace with Some tr -> Trace.emit tr ev | None -> ()

let link_epoch_of node h =
  Option.value ~default:0 (Hashtbl.find_opt node.link_epoch h)

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
let send_msg t node ~kind ~dst msg =
  Hashtbl.replace node.last_sent dst (Engine.round t.engine);
  Engine.send t.engine ~src:node.id ~dst ~kind ~bytes:(message_bytes msg) msg

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
    (fun nb ->
      match Hashtbl.find_opt node.aggr_node nb.Node_info.host with
      | Some infos -> List.iter consider infos
      | None -> ())
    node.neighbors;
  Array.of_list (List.rev !acc)

let clustering_space node =
  match node.space with
  | Some cached -> cached
  | None ->
      let infos = clustering_space_node node in
      let cached = (infos, Node_info.space_of infos) in
      node.space <- Some cached;
      cached

(* Runs on every changed step, cached space or not: a query may have
   built the space after V_x last changed but before this recount. *)
let recompute_own_row t node =
  let _, space = clustering_space node in
  node.own_row <- Find_cluster.max_sizes space ~ls:(Classes.distances t.classes)

(* ----- message construction ----- *)

(* Algorithm 2: the n_cut hosts closest to the recipient among
   {x} union aggrNode[v] for v <> recipient. *)
let prop_node_for t node ~recipient =
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
    (fun nb ->
      if nb.Node_info.host <> recipient.Node_info.host then
        match Hashtbl.find_opt node.aggr_node nb.Node_info.host with
        | Some infos -> List.iter consider infos
        | None -> ())
    node.neighbors;
  (* decorate-sort: each candidate's distance is computed once, and the
     sort makes the same comparisons on the same keys as sorting the bare
     infos by distance would, so ties land in the same order *)
  let cand =
    Array.of_list (List.map (fun info -> (Node_info.dist recipient info, info)) !acc)
  in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) cand;
  List.init (Stdlib.min t.n_cut (Array.length cand)) (fun i -> snd cand.(i))

(* Algorithm 3, lines 9-10: max over own row and every other neighbor's
   aggregated column. *)
let prop_crt_for node ~recipient =
  let out = Array.copy node.own_row in
  List.iter
    (fun nb ->
      if nb.Node_info.host <> recipient.Node_info.host then
        match Hashtbl.find_opt node.aggr_crt nb.Node_info.host with
        | Some row ->
            Array.iteri (fun i v -> if v > out.(i) then out.(i) <- v) row
        | None -> ())
    node.neighbors;
  out

let send_updates t node =
  let now = Engine.round t.engine in
  List.iter
    (fun nb ->
      let payload =
        {
          prop_node = prop_node_for t node ~recipient:nb;
          prop_crt = prop_crt_for node ~recipient:nb;
        }
      in
      let h = nb.Node_info.host in
      let le = link_epoch_of node h in
      match Hashtbl.find_opt node.out h with
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
          send_msg t node ~kind:node.dirty_kind ~dst:h
            (Update { epoch = le; seq = entry.seq; payload })
      | None ->
          Hashtbl.replace node.out h
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
          send_msg t node ~kind:node.dirty_kind ~dst:h
            (Update { epoch = le; seq = 0; payload }))
    node.neighbors

(* Timeout-based retransmission: an unacked update is re-sent verbatim
   every [resend_timeout] rounds, so the aggregation survives message
   loss and crash windows.  After [max_retransmits] fruitless tries the
   sender gives up — the entry is retired from the unacked count (the
   peer is presumed dead; quiescence must not hinge on it) but kept, so
   any later sign of life from the peer revives it. *)
let resend_pending t node =
  let now = Engine.round t.engine in
  (* sorted traversal: the send order decides in-flight FIFO order within
     a delivery round, so bucket order here would leak hash-layout
     nondeterminism into the protocol fixed point *)
  Bwc_stats.Tbl.iter_sorted
    (fun h entry ->
      if
        (not entry.acked)
        && (not entry.gave_up)
        && now - entry.sent_round >= resend_timeout
      then
        if entry.tries >= max_retransmits then begin
          entry.gave_up <- true;
          t.unacked <- t.unacked - 1;
          Registry.Counter.incr t.c_give_up
        end
        else begin
          entry.tries <- entry.tries + 1;
          entry.sent_round <- now;
          Registry.Counter.incr t.c_retransmissions;
          emit t (Trace.Retransmit { round = now; src = node.id; dst = h });
          send_msg t node ~kind:Trace.Retransmit ~dst:h
            (Update { epoch = entry.epoch; seq = entry.seq; payload = entry.payload })
        end)
    node.out

(* a message from a peer we had given up on proves it alive: restore the
   entry to the unacked pool and let the resend timer fire immediately *)
let revive_given_up t node src =
  match Hashtbl.find_opt node.out src with
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
        (fun nb ->
          let h = nb.Node_info.host in
          let last =
            Option.value ~default:(Stdlib.min_int / 2)
              (Hashtbl.find_opt node.last_sent h)
          in
          if now - last >= hb then begin
            Registry.Counter.incr t.c_heartbeats;
            send_msg t node ~kind:Trace.Heartbeat ~dst:h Heartbeat
          end)
        node.neighbors

(* ----- round driver ----- *)

let is_neighbor node h =
  List.exists (fun nb -> nb.Node_info.host = h) node.neighbors

let apply_update t node ~src ~epoch ~seq payload =
  if not (is_neighbor node src) then begin
    (* in-flight leftover of a link self-healing already tore down *)
    Registry.Counter.incr t.c_epoch_discarded;
    false
  end
  else begin
    let link_e = link_epoch_of node src in
    if epoch < link_e then begin
      (* predates the link's last repair reset: the fresh numbering must
         not be contaminated by the old epoch's sequence space *)
      Registry.Counter.incr t.c_epoch_discarded;
      false
    end
    else begin
      if epoch > link_e then begin
        (* the sender re-established the link first; adopt its epoch and
           restart the per-link numbering *)
        Hashtbl.replace node.link_epoch src epoch;
        Hashtbl.remove node.seen_seq src
      end;
      let seen = Option.value ~default:(-1) (Hashtbl.find_opt node.seen_seq src) in
      if seq < seen then begin
        (* out-of-order copy superseded by something already applied *)
        Registry.Counter.incr t.c_stale_discarded;
        send_msg t node ~kind:Trace.Ack ~dst:src (Ack { epoch; seq = seen });
        false
      end
      else if seq = seen then begin
        (* duplicate: the aggregation merge is idempotent, so re-applying
           must be a no-op — check that the stored state already equals the
           payload, then just re-ack (the previous ack may have been lost) *)
        Registry.Counter.incr t.c_dup_suppressed;
        assert (
          match Hashtbl.find_opt node.aggr_node src with
          | Some prev -> List.compare Node_info.compare_host prev payload.prop_node = 0
          | None -> false);
        assert (
          match Hashtbl.find_opt node.aggr_crt src with
          | Some prev -> prev = payload.prop_crt
          | None -> false);
        send_msg t node ~kind:Trace.Ack ~dst:src (Ack { epoch; seq = seen });
        false
      end
      else begin
        Hashtbl.replace node.seen_seq src seq;
        send_msg t node ~kind:Trace.Ack ~dst:src (Ack { epoch; seq });
        let node_diff =
          match Hashtbl.find_opt node.aggr_node src with
          | Some prev -> List.compare Node_info.compare_host prev payload.prop_node <> 0
          | None -> true
        in
        if node_diff then begin
          Hashtbl.replace node.aggr_node src payload.prop_node;
          node.space <- None
        end;
        let crt_diff =
          match Hashtbl.find_opt node.aggr_crt src with
          | Some prev -> prev <> payload.prop_crt
          | None -> true
        in
        if crt_diff then Hashtbl.replace node.aggr_crt src payload.prop_crt;
        node_diff || crt_diff
      end
    end
  end

let apply_ack t node ~src ~epoch ~seq =
  match Hashtbl.find_opt node.out src with
  | Some entry when (not entry.acked) && epoch = entry.epoch && seq = entry.seq ->
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
      (match t.detector with
      | Some d -> Detector.heard d ~watcher:id ~peer:src ~round:now
      | None -> ());
      revive_given_up t node src;
      match msg with
      | Update { epoch; seq; payload } ->
          if apply_update t node ~src ~epoch ~seq payload then changed := true
      | Ack { epoch; seq } -> apply_ack t node ~src ~epoch ~seq
      | Heartbeat -> ())
    inbox;
  if !changed then begin
    recompute_own_row t node;
    send_updates t node;
    node.dirty <- false;
    node.dirty_kind <- Trace.Aggregate;
    t.step_changed <- true
  end;
  resend_pending t node;
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

(* forget an unacked live entry towards [peer] before dropping it *)
let drop_out_entry t node peer =
  (match Hashtbl.find_opt node.out peer with
  | Some e when (not e.acked) && not e.gave_up -> t.unacked <- t.unacked - 1
  | Some _ | None -> ());
  Hashtbl.remove node.out peer

(* (re-)establish the live link [a]<->[b] at the current repair epoch:
   per-link delivery state restarts from scratch on both sides, and both
   are marked dirty with [kind].  Neighbour lists are the caller's to
   re-read, once per node however many of its links moved. *)
let relink t ~round ~kind a b =
  let half x y =
    match t.nodes.(x) with
    | None -> ()
    | Some node ->
        drop_out_entry t node y;
        Hashtbl.remove node.seen_seq y;
        Hashtbl.remove node.last_sent y;
        Hashtbl.replace node.link_epoch y t.epoch;
        mark_dirty node kind;
        (match t.detector with
        | Some d -> Detector.watch d ~watcher:x ~peer:y ~round
        | None -> ())
  in
  half a b;
  half b a

let renew_neighbors node fw =
  node.neighbors <- neighbor_infos fw node.id;
  node.space <- None

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
          (fun nb ->
            let y = nb.Node_info.host in
            relink t ~round ~kind:Trace.Aggregate h y;
            Option.iter (fun ynode -> renew_neighbors ynode t.fw) t.nodes.(y))
          node.neighbors;
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
      Bwc_stats.Tbl.iter_sorted
        (fun _ e -> if (not e.acked) && not e.gave_up then t.unacked <- t.unacked - 1)
        dnode.out;
      let old_nbrs =
        List.sort compare (List.map (fun nb -> nb.Node_info.host) dnode.neighbors)
      in
      (* local overlay repair: orphans regraft to the grandparent *)
      let regrafts = Ensemble.evict_host t.fw dead_h in
      t.nodes.(dead_h) <- None;
      Engine.set_active t.engine dead_h false;
      (match t.detector with
      | Some d ->
          List.iter
            (fun x ->
              Detector.unwatch d ~watcher:x ~peer:dead_h;
              Detector.unwatch d ~watcher:dead_h ~peer:x)
            old_nbrs
      | None -> ());
      (* incremental invalidation: only the dead node's ex-neighbors hold
         direct state about it; on a tree nothing else can echo it back
         (recompute-and-replace propagation overwrites downstream copies),
         so deleting here and re-propagating re-converges the overlay *)
      List.iter
        (fun x ->
          match t.nodes.(x) with
          | None -> ()
          | Some node ->
              drop_out_entry t node dead_h;
              Hashtbl.remove node.aggr_node dead_h;
              Hashtbl.remove node.aggr_crt dead_h;
              Hashtbl.remove node.seen_seq dead_h;
              Hashtbl.remove node.link_epoch dead_h;
              Hashtbl.remove node.last_sent dead_h;
              (* both ends of every regraft are ex-neighbours (orphans
                 move to the dead node's parent or to a promoted orphan),
                 so this is the one re-read each touched list needs *)
              renew_neighbors node t.fw;
              mark_dirty node Trace.Invalidate)
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

let quiescent t =
  t.unacked = 0
  && Array.for_all (function Some node -> not node.dirty | None -> true) t.nodes
  &&
  match t.detector with
  | None -> true
  | Some d -> not (Detector.pending d ~round:(Engine.round t.engine))

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
      let round = Engine.round t.engine in
      let confirmed = Detector.tick d ~round ~live:(Engine.is_active t.engine) in
      repair t ~dead:confirmed;
      (* heartbeats keep the engine's in-flight count permanently
         non-zero, so the engine's own activity notion is useless here:
         the protocol is live while state changed, updates await acks, or
         a detector lease is running out *)
      t.step_changed || t.unacked > 0 || Detector.pending d ~round

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
let detour t x ordered =
  match t.detector with
  | None -> ordered
  | Some d ->
      let suspected, healthy =
        List.partition (fun (h, _) -> Detector.suspects d ~watcher:x ~peer:h) ordered
      in
      healthy @ suspected

let local_find t node ~k ~cls =
  let infos, space = clustering_space node in
  match Find_cluster.find space ~k ~l:(Classes.distance t.classes cls) with
  | None -> None
  | Some idxs -> Some (List.map (fun i -> infos.(i).Node_info.host) idxs)

(* hop retransmissions over a lossy link before the router falls back *)
let hop_retries = 2

let query ?(policy = `Best_crt) ?hop_budget t ~at ~k ~cls =
  if k < 2 then invalid_arg "Protocol.query: k < 2";
  if cls < 0 || cls >= Classes.count t.classes then invalid_arg "Protocol.query: bad class";
  let hop_budget =
    (* a routing path on the anchor tree is simple, so n hops is already
       unreachable — the default budget changes nothing on healthy runs *)
    match hop_budget with
    | Some h when h < 0 -> invalid_arg "Protocol.query: negative hop budget"
    | Some h -> h
    | None -> Array.length t.nodes
  in
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
          (fun nb ->
            let h = nb.Node_info.host in
            if Some h = from then None
            else
              match Hashtbl.find_opt node.aggr_crt h with
              | Some row when row.(cls) >= k -> Some (h, row.(cls))
              | Some _ | None -> None)
          node.neighbors
      in
      let ordered =
        match policy with
        | `First -> qualifying
        | `Best_crt ->
            (* stable sort: equal promises keep neighbor order *)
            List.stable_sort (fun (_, a) (_, b) -> compare b a) qualifying
      in
      match first_reachable x (List.map fst (detour t x ordered)) with
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

let query_bandwidth ?policy ?hop_budget t ~at ~k ~b =
  match Classes.class_for t.classes ~b with
  | Some cls -> query ?policy ?hop_budget t ~at ~k ~cls
  | None -> Query.not_found_at at

let crt_row t x v =
  let node = get_node t x in
  if v = x then Array.copy node.own_row
  else if not (List.exists (fun nb -> nb.Node_info.host = v) node.neighbors) then
    raise Not_found
  else
    match Hashtbl.find_opt node.aggr_crt v with
    | Some row -> Array.copy row
    | None -> Array.make (Classes.count t.classes) 0

let max_reachable t x ~cls =
  let node = get_node t x in
  List.fold_left
    (fun acc nb ->
      match Hashtbl.find_opt node.aggr_crt nb.Node_info.host with
      | Some row -> Stdlib.max acc row.(cls)
      | None -> acc)
    node.own_row.(cls) node.neighbors

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
   restore.  Neighbor lists and node infos are {e not} dumped either;
   they are always derived from the ensemble, which travels alongside. *)

type out_dump = {
  o_peer : int;
  o_epoch : int;
  o_seq : int;
  o_prop_node : Node_info.t list;
  o_prop_crt : int array;
  o_sent_round : int;
  o_tries : int;
  o_acked : bool;
  o_gave_up : bool;
}

type node_dump = {
  nd_id : int;
  nd_active : bool; (* engine liveness: a crashed-but-not-evicted member *)
  nd_dirty : bool;
  nd_own_row : int array;
  nd_aggr_node : (int * Node_info.t list) list; (* ascending neighbor id *)
  nd_aggr_crt : (int * int array) list;
  nd_out : out_dump list;
  nd_seen_seq : (int * int) list;
  nd_link_epoch : (int * int) list;
  nd_last_sent : (int * int) list;
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

let sorted_assoc tbl = List.map (fun k -> (k, Hashtbl.find tbl k)) (Bwc_stats.Tbl.sorted_keys tbl)

let dump t =
  let nodes = ref [] in
  for id = Array.length t.nodes - 1 downto 0 do
    match t.nodes.(id) with
    | None -> ()
    | Some node ->
        let out =
          List.map
            (fun (peer, (e : out_entry)) ->
              {
                o_peer = peer;
                o_epoch = e.epoch;
                o_seq = e.seq;
                o_prop_node = e.payload.prop_node;
                o_prop_crt = e.payload.prop_crt;
                o_sent_round = e.sent_round;
                o_tries = e.tries;
                o_acked = e.acked;
                o_gave_up = e.gave_up;
              })
            (sorted_assoc node.out)
        in
        nodes :=
          {
            nd_id = id;
            nd_active = Engine.is_active t.engine id;
            nd_dirty = node.dirty;
            nd_own_row = Array.copy node.own_row;
            nd_aggr_node = sorted_assoc node.aggr_node;
            nd_aggr_crt = sorted_assoc node.aggr_crt;
            nd_out = out;
            nd_seen_seq = sorted_assoc node.seen_seq;
            nd_link_epoch = sorted_assoc node.link_epoch;
            nd_last_sent = sorted_assoc node.last_sent;
          }
          :: !nodes
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
  let fail msg = invalid_arg ("Protocol.of_dump: " ^ msg) in
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
  let nodes = Array.make n None in
  let unacked = ref 0 in
  List.iter
    (fun nd ->
      let nbrs = Ensemble.anchor_neighbors fw nd.nd_id in
      let check_peer p = if not (List.mem p nbrs) then fail "state keyed by a non-neighbor" in
      check_row nd.nd_own_row;
      Array.iter (fun v -> if v < 0 then fail "negative cluster size") nd.nd_own_row;
      let node = fresh_node fw classes nd.nd_id in
      node.own_row <- Array.copy nd.nd_own_row;
      node.dirty <- nd.nd_dirty;
      List.iter
        (fun (p, infos) ->
          check_peer p;
          List.iter check_info infos;
          Hashtbl.replace node.aggr_node p infos)
        nd.nd_aggr_node;
      List.iter
        (fun (p, row) ->
          check_peer p;
          check_row row;
          Hashtbl.replace node.aggr_crt p (Array.copy row))
        nd.nd_aggr_crt;
      List.iter
        (fun o ->
          check_peer o.o_peer;
          if o.o_epoch < 0 || o.o_epoch > d.d_epoch then fail "out entry epoch out of range";
          if o.o_seq < 0 || o.o_tries < 0 then fail "negative out entry field";
          if o.o_sent_round > d.d_engine_round then fail "out entry from the future";
          check_row o.o_prop_crt;
          List.iter check_info o.o_prop_node;
          if (not o.o_acked) && not o.o_gave_up then incr unacked;
          Hashtbl.replace node.out o.o_peer
            {
              epoch = o.o_epoch;
              seq = o.o_seq;
              payload = { prop_node = o.o_prop_node; prop_crt = Array.copy o.o_prop_crt };
              sent_round = o.o_sent_round;
              tries = o.o_tries;
              acked = o.o_acked;
              gave_up = o.o_gave_up;
            })
        nd.nd_out;
      List.iter
        (fun (p, s) ->
          check_peer p;
          if s < 0 then fail "negative seen seq";
          Hashtbl.replace node.seen_seq p s)
        nd.nd_seen_seq;
      List.iter
        (fun (p, e) ->
          check_peer p;
          if e < 0 || e > d.d_epoch then fail "link epoch out of range";
          Hashtbl.replace node.link_epoch p e)
        nd.nd_link_epoch;
      List.iter
        (fun (p, r) ->
          check_peer p;
          if r > d.d_engine_round then fail "send stamp from the future";
          Hashtbl.replace node.last_sent p r)
        nd.nd_last_sent;
      nodes.(nd.nd_id) <- Some node)
    d.d_nodes;
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
