(* Happens-before reconstruction and convergence critical-path analysis
   over a schema-v2 trace (see trace.mli).

   Everything here is a pure function of the event list, and every
   output is rendered in a canonical order (message id, node id, link,
   kind order of Trace.all_kinds), so two identically-seeded runs
   analyze to byte-identical reports.

   The reconstruction is a single scan in trace order, which is
   causally consistent by construction: the engine delivers a round's
   due messages before any node steps, so every Deliver of round r
   precedes every Send of round r in the stream.  A send's causal
   predecessor is the strongest chain already delivered at its source —
   the same O(events) recurrence used for longest paths in DAGs. *)

module Tbl = Bwc_stats.Tbl

type msg_info = {
  m_id : int;
  m_kind : Trace.msg_kind;
  m_bytes : int;
  m_src : int;
  m_dst : int;
  m_send_round : int;
  m_send_lc : int;
  m_deliver_round : int option;
  m_deliver_lc : int option;
  m_pred : int option;
  m_chain : int;
}

type dag = {
  msgs : msg_info list;
  unmatched_delivers : int list;
}

(* mutable accumulator behind msg_info *)
type cell = {
  c_id : int;
  c_kind : Trace.msg_kind;
  c_bytes : int;
  c_src : int;
  c_dst : int;
  c_send_round : int;
  c_send_lc : int;
  mutable c_deliver_round : int option;
  mutable c_deliver_lc : int option;
  c_pred : int option;
  c_chain : int;
}

let reconstruct events =
  let cells : (int, cell) Hashtbl.t = Hashtbl.create 1024 in
  (* strongest delivered chain per node: length and the message id that
     achieves it (first achiever wins ties, which is the smallest-id one
     delivered earliest — deterministic) *)
  let best_len : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let best_msg : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let unmatched = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Send { round; msg; kind; bytes; lc; src; dst } ->
          let len = Option.value ~default:0 (Hashtbl.find_opt best_len src) in
          Hashtbl.replace cells msg
            {
              c_id = msg;
              c_kind = kind;
              c_bytes = bytes;
              c_src = src;
              c_dst = dst;
              c_send_round = round;
              c_send_lc = lc;
              c_deliver_round = None;
              c_deliver_lc = None;
              c_pred = Hashtbl.find_opt best_msg src;
              c_chain = len + 1;
            }
      | Trace.Deliver { round; msg; lc; dst; _ } -> (
          match Hashtbl.find_opt cells msg with
          | None -> unmatched := msg :: !unmatched
          | Some c ->
              (if c.c_deliver_round = None then begin
                 c.c_deliver_round <- Some round;
                 c.c_deliver_lc <- Some lc
               end);
              let cur = Option.value ~default:0 (Hashtbl.find_opt best_len dst) in
              if c.c_chain > cur then begin
                Hashtbl.replace best_len dst c.c_chain;
                Hashtbl.replace best_msg dst c.c_id
              end)
      | _ -> ())
    events;
  let msgs =
    List.map
      (fun id ->
        let c = Hashtbl.find cells id in
        {
          m_id = c.c_id;
          m_kind = c.c_kind;
          m_bytes = c.c_bytes;
          m_src = c.c_src;
          m_dst = c.c_dst;
          m_send_round = c.c_send_round;
          m_send_lc = c.c_send_lc;
          m_deliver_round = c.c_deliver_round;
          m_deliver_lc = c.c_deliver_lc;
          m_pred = c.c_pred;
          m_chain = c.c_chain;
        })
      (Tbl.sorted_keys cells)
  in
  { msgs; unmatched_delivers = List.sort_uniq compare !unmatched }

(* ----- attribution and the full report ----- *)

type hop = {
  h_msg : int;
  h_kind : Trace.msg_kind;
  h_src : int;
  h_dst : int;
  h_send_round : int;
  h_deliver_round : int;
  h_bytes : int;
}

type kind_stat = {
  k_sends : int;
  k_bytes : int;
  k_delivered : int;
  k_dropped : int;
}

type node_stat = {
  n_sent : int;
  n_sent_bytes : int;
  n_recv : int;
  n_recv_bytes : int;
}

type link_stat = { l_msgs : int; l_bytes : int }
type round_stat = { r_sends : int; r_delivers : int; r_bytes : int }

type report = {
  rounds : int;
  quiesce_round : int option;
  messages : int;
  delivered_events : int;
  dropped_events : int;
  query_hops : int;
  total_bytes : int;
  critical_path : hop list;
  cp_rounds : int;
  frac_explained : float;
  by_kind : (Trace.msg_kind * kind_stat) list;
  by_node : (int * node_stat) list;
  by_link : ((int * int) * link_stat) list;
  per_round : (int * round_stat) list;
}

let zero_kind = { k_sends = 0; k_bytes = 0; k_delivered = 0; k_dropped = 0 }
let zero_node = { n_sent = 0; n_sent_bytes = 0; n_recv = 0; n_recv_bytes = 0 }
let zero_link = { l_msgs = 0; l_bytes = 0 }
let zero_round = { r_sends = 0; r_delivers = 0; r_bytes = 0 }

let analyze events =
  let dag = reconstruct events in
  let by_msg : (int, msg_info) Hashtbl.t = Hashtbl.create 1024 in
  List.iter (fun m -> Hashtbl.replace by_msg m.m_id m) dag.msgs;
  let kinds : (Trace.msg_kind, kind_stat) Hashtbl.t = Hashtbl.create 8 in
  let nodes : (int, node_stat) Hashtbl.t = Hashtbl.create 64 in
  let links : (int * int, link_stat) Hashtbl.t = Hashtbl.create 256 in
  let rounds_tbl : (int, round_stat) Hashtbl.t = Hashtbl.create 64 in
  let upd tbl key zero f =
    Hashtbl.replace tbl key (f (Option.value ~default:zero (Hashtbl.find_opt tbl key)))
  in
  let last_round = ref 0 in
  let quiesce = ref None in
  let messages = ref 0 in
  let delivered = ref 0 in
  let dropped = ref 0 in
  let hops = ref 0 in
  let total_bytes = ref 0 in
  let record_send ~round ~kind ~bytes ~src ~dst =
    total_bytes := !total_bytes + bytes;
    upd kinds kind zero_kind (fun k ->
        { k with k_sends = k.k_sends + 1; k_bytes = k.k_bytes + bytes });
    upd nodes src zero_node (fun s ->
        { s with n_sent = s.n_sent + 1; n_sent_bytes = s.n_sent_bytes + bytes });
    upd links (src, dst) zero_link (fun l ->
        { l_msgs = l.l_msgs + 1; l_bytes = l.l_bytes + bytes });
    upd rounds_tbl round zero_round (fun r ->
        { r with r_sends = r.r_sends + 1; r_bytes = r.r_bytes + bytes })
  in
  let record_recv ~round ~kind ~bytes ~dst =
    upd kinds kind zero_kind (fun k -> { k with k_delivered = k.k_delivered + 1 });
    upd nodes dst zero_node (fun s ->
        { s with n_recv = s.n_recv + 1; n_recv_bytes = s.n_recv_bytes + bytes });
    upd rounds_tbl round zero_round (fun r -> { r with r_delivers = r.r_delivers + 1 })
  in
  List.iter
    (fun ev ->
      (match ev with
      | Trace.Round_start { round }
      | Trace.Send { round; _ }
      | Trace.Deliver { round; _ }
      | Trace.Drop { round; _ }
      | Trace.Retransmit { round; _ }
      | Trace.Crash { round; _ }
      | Trace.Restart { round; _ }
      | Trace.Query_hop { round; _ }
      | Trace.Suspect { round; _ }
      | Trace.Confirm_dead { round; _ }
      | Trace.Regraft { round; _ }
      | Trace.Quiesce { round }
      | Trace.Snapshot_write { round; _ }
      | Trace.Restore { round; _ }
      | Trace.Restore_rejected { round; _ }
      | Trace.Daemon_admit { round; _ }
      | Trace.Daemon_shed { round; _ }
      | Trace.Daemon_timeout { round; _ }
      | Trace.Daemon_degrade { round; _ }
      | Trace.Daemon_retry { round; _ }
      | Trace.Daemon_watchdog { round; _ } ->
          if round > !last_round then last_round := round);
      match ev with
      | Trace.Send { round; kind; bytes; src; dst; _ } ->
          incr messages;
          record_send ~round ~kind ~bytes ~src ~dst
      | Trace.Deliver { round; kind; bytes; dst; _ } ->
          incr delivered;
          record_recv ~round ~kind ~bytes ~dst
      | Trace.Drop { kind; _ } ->
          incr dropped;
          upd kinds kind zero_kind (fun k -> { k with k_dropped = k.k_dropped + 1 })
      | Trace.Query_hop { round; msg = _; bytes; src; dst } ->
          (* synchronous hop: counted as an immediately-delivered query
             message in every attribution table *)
          incr hops;
          record_send ~round ~kind:Trace.Query ~bytes ~src ~dst;
          record_recv ~round ~kind:Trace.Query ~bytes ~dst
      | Trace.Quiesce { round } -> if !quiesce = None then quiesce := Some round
      | _ -> ())
    events;
  (* critical path: the strongest delivered chain, ties to the smallest
     message id; walk the predecessor links back to a root send *)
  let terminal =
    List.fold_left
      (fun best m ->
        match m.m_deliver_round with
        | None -> best
        | Some _ -> (
            match best with
            | None -> Some m
            | Some b -> if m.m_chain > b.m_chain then Some m else best))
      None dag.msgs
  in
  let rec walk acc = function
    | None -> acc
    | Some m ->
        let hop =
          {
            h_msg = m.m_id;
            h_kind = m.m_kind;
            h_src = m.m_src;
            h_dst = m.m_dst;
            h_send_round = m.m_send_round;
            h_deliver_round = Option.value ~default:m.m_send_round m.m_deliver_round;
            h_bytes = m.m_bytes;
          }
        in
        walk (hop :: acc) (Option.bind m.m_pred (Hashtbl.find_opt by_msg))
  in
  let critical_path = walk [] terminal in
  let cp_rounds =
    match (critical_path, List.rev critical_path) with
    | first :: _, last :: _ -> last.h_deliver_round - first.h_send_round
    | _ -> 0
  in
  (* denominator: the quiesce round when the path ends inside the initial
     convergence, the full traced span when the chain runs past it (crash
     recovery keeps sending after the first quiesce) — so the figure is a
     genuine fraction in [0, 1] either way *)
  let total =
    match !quiesce with
    | Some q when cp_rounds <= q -> q
    | _ -> !last_round
  in
  let frac_explained =
    if total <= 0 then 0.0 else float_of_int cp_rounds /. float_of_int total
  in
  let collect tbl zero = List.map (fun k -> (k, Option.value ~default:zero (Hashtbl.find_opt tbl k))) in
  {
    rounds = !last_round;
    quiesce_round = !quiesce;
    messages = !messages;
    delivered_events = !delivered;
    dropped_events = !dropped;
    query_hops = !hops;
    total_bytes = !total_bytes;
    critical_path;
    cp_rounds;
    frac_explained;
    by_kind = collect kinds zero_kind Trace.all_kinds;
    by_node = List.map (fun k -> (k, Hashtbl.find nodes k)) (Tbl.sorted_keys nodes);
    by_link = List.map (fun k -> (k, Hashtbl.find links k)) (Tbl.sorted_keys links);
    per_round =
      List.map (fun k -> (k, Hashtbl.find rounds_tbl k)) (Tbl.sorted_keys rounds_tbl);
  }

(* ----- rendering ----- *)

let pct f = 100.0 *. f

let to_text r =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  p "trace analytics\n";
  p "  rounds      : %d%s\n" r.rounds
    (match r.quiesce_round with
    | Some q -> Printf.sprintf " (quiesce at %d)" q
    | None -> " (no quiesce)");
  p "  messages    : %d sends, %d delivered, %d dropped, %d query hops\n" r.messages
    r.delivered_events r.dropped_events r.query_hops;
  p "  bytes       : %d\n" r.total_bytes;
  p "\n";
  (match (r.critical_path, List.rev r.critical_path) with
  | [], _ | _, [] -> p "critical path: empty (no delivered messages)\n"
  | first :: _, last :: _ ->
      p "critical path (%d hops, rounds %d..%d, %.1f%% of %d rounds explained)\n"
        (List.length r.critical_path) first.h_send_round last.h_deliver_round
        (pct r.frac_explained)
        (match r.quiesce_round with
        | Some q when r.cp_rounds <= q -> q
        | _ -> r.rounds);
      p "  %4s  %6s  %-10s  %11s  %5s  %8s  %5s\n" "hop" "msg" "kind" "link" "sent"
        "delivered" "bytes";
      List.iteri
        (fun i h ->
          p "  %4d  %6d  %-10s  %4d -> %4d  %5d  %8d  %5d\n" (i + 1) h.h_msg
            (Trace.kind_to_string h.h_kind)
            h.h_src h.h_dst h.h_send_round h.h_deliver_round h.h_bytes)
        r.critical_path);
  p "\n";
  p "byte budget by kind\n";
  p "  %-10s  %7s  %9s  %9s  %7s\n" "kind" "sends" "bytes" "delivered" "dropped";
  List.iter
    (fun (k, s) ->
      if s.k_sends > 0 || s.k_dropped > 0 then
        p "  %-10s  %7d  %9d  %9d  %7d\n" (Trace.kind_to_string k) s.k_sends s.k_bytes
          s.k_delivered s.k_dropped)
    r.by_kind;
  p "\n";
  p "busiest links (top 10 by bytes)\n";
  let ranked =
    List.stable_sort
      (fun (_, a) (_, b) -> compare b.l_bytes a.l_bytes)
      r.by_link
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  p "  %11s  %7s  %9s\n" "link" "msgs" "bytes";
  List.iter
    (fun ((src, dst), l) -> p "  %4d -> %4d  %7d  %9d\n" src dst l.l_msgs l.l_bytes)
    (take 10 ranked);
  p "\n";
  p "round waterfall (sends per round)\n";
  let max_sends =
    List.fold_left (fun acc (_, s) -> Stdlib.max acc s.r_sends) 1 r.per_round
  in
  List.iter
    (fun (round, s) ->
      let width = s.r_sends * 40 / max_sends in
      p "  %4d |%s %d sends, %d bytes\n" round (String.make width '#') s.r_sends
        s.r_bytes)
    r.per_round;
  Buffer.contents buf

let to_json r =
  let open Bwc_json in
  let rows f l = Arr (List.map f l) in
  let hop h =
    Obj
      [ ("msg", Int h.h_msg); ("kind", Str (Trace.kind_to_string h.h_kind));
        ("src", Int h.h_src); ("dst", Int h.h_dst); ("send_round", Int h.h_send_round);
        ("deliver_round", Int h.h_deliver_round); ("bytes", Int h.h_bytes) ]
  in
  to_string
    (Obj
       [
         ("rounds", Int r.rounds);
         ("quiesce_round", match r.quiesce_round with Some q -> Int q | None -> Null);
         ("messages", Int r.messages);
         ("delivered", Int r.delivered_events);
         ("dropped", Int r.dropped_events);
         ("query_hops", Int r.query_hops);
         ("total_bytes", Int r.total_bytes);
         ( "critical_path",
           Obj
             [ ("hops", Int (List.length r.critical_path)); ("cp_rounds", Int r.cp_rounds);
               ("frac_explained", Num (r.frac_explained, 4));
               ("chain", rows hop r.critical_path) ] );
         ( "by_kind",
           rows
             (fun (k, s) ->
               Obj
                 [ ("kind", Str (Trace.kind_to_string k)); ("sends", Int s.k_sends);
                   ("bytes", Int s.k_bytes); ("delivered", Int s.k_delivered);
                   ("dropped", Int s.k_dropped) ])
             r.by_kind );
         ( "by_node",
           rows
             (fun (node, s) ->
               Obj
                 [ ("node", Int node); ("sent", Int s.n_sent);
                   ("sent_bytes", Int s.n_sent_bytes); ("recv", Int s.n_recv);
                   ("recv_bytes", Int s.n_recv_bytes) ])
             r.by_node );
         ( "by_link",
           rows
             (fun ((src, dst), l) ->
               Obj
                 [ ("src", Int src); ("dst", Int dst); ("msgs", Int l.l_msgs);
                   ("bytes", Int l.l_bytes) ])
             r.by_link );
         ( "per_round",
           rows
             (fun (round, s) ->
               Obj
                 [ ("round", Int round); ("sends", Int s.r_sends);
                   ("delivers", Int s.r_delivers); ("bytes", Int s.r_bytes) ])
             r.per_round );
       ])

let engine_sends r =
  List.fold_left
    (fun acc (k, s) -> if k = Trace.Query then acc else acc + s.k_sends)
    0 r.by_kind
