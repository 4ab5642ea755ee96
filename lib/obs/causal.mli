(** Happens-before reconstruction and convergence critical-path
    analysis over a schema-v2 {!Trace}.

    All functions are pure in the event list and render in canonical
    orders (message id, node id, link, {!Trace.all_kinds}), so
    identically-seeded runs analyze to byte-identical text and JSON.

    The happens-before model: each {!Trace.Send} is caused by the
    strongest causal chain already delivered at its source when it was
    emitted (trace order is causally consistent — the engine delivers a
    round's due messages before any node steps).  The {e critical path}
    is the longest such chain that ends in a delivery: the witness
    sequence of messages convergence actually waited for. *)

type msg_info = {
  m_id : int;
  m_kind : Trace.msg_kind;
  m_bytes : int;
  m_src : int;
  m_dst : int;
  m_send_round : int;
  m_send_lc : int;  (** sender Lamport stamp *)
  m_deliver_round : int option;  (** first delivery ([None] if lost) *)
  m_deliver_lc : int option;  (** receiver Lamport stamp at first delivery *)
  m_pred : int option;
      (** causal predecessor: the message whose delivery headed the
          strongest chain at the source when this one was sent *)
  m_chain : int;  (** length of the longest causal chain ending here *)
}

type dag = {
  msgs : msg_info list;  (** ascending [m_id] *)
  unmatched_delivers : int list;
      (** ids delivered without a visible send — empty on any complete
          (unbounded-sink) trace; non-empty means the ring dropped the
          send *)
}

val reconstruct : Trace.event list -> dag
(** Single O(events) scan.  Predecessor links form a forest (each
    message has at most one), so the reconstructed DAG is acyclic by
    construction; tests assert the stronger per-edge facts
    [pred.deliver_round <= succ.send_round] and
    [pred.deliver_lc < succ.send_lc]. *)

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
  rounds : int;  (** highest round stamped on any event *)
  quiesce_round : int option;  (** first [Quiesce], if any *)
  messages : int;  (** [Send] events (1:1 with engine sends) *)
  delivered_events : int;
  dropped_events : int;
  query_hops : int;
  total_bytes : int;  (** sent bytes, query hops included *)
  critical_path : hop list;  (** causal order, root first *)
  cp_rounds : int;  (** rounds spanned: last delivery - first send *)
  frac_explained : float;
      (** [cp_rounds] over the quiesce round when the path ends inside the
          initial convergence, over the full traced span when it runs past
          it (e.g. crash recovery) — a genuine fraction in [0, 1] *)
  by_kind : (Trace.msg_kind * kind_stat) list;
      (** one row per kind in {!Trace.all_kinds} order; query hops are
          counted under [Query] as immediately-delivered sends *)
  by_node : (int * node_stat) list;  (** ascending node id *)
  by_link : ((int * int) * link_stat) list;  (** ascending (src, dst) *)
  per_round : (int * round_stat) list;  (** ascending round *)
}

val analyze : Trace.event list -> report

val to_text : report -> string
(** Human-readable report: summary, critical-path witness chain,
    per-kind byte budget, busiest links, ASCII round waterfall. *)

val to_json : report -> string
(** Canonical single-line JSON rendering of the whole report. *)

val engine_sends : report -> int
(** Sum of [k_sends] over every non-[Query] kind.  Equals the engine's
    [msgs_sent] counter exactly on any unbounded trace: every
    [Engine.send] emits exactly one [Send] event, and query hops never
    pass through the engine queue. *)
