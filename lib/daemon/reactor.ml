(* The deterministic daemon core.

   A pure state machine over injected time: callers feed it protocol
   lines ([handle_line]) and clock ticks ([tick]); it never reads the
   wall clock, never touches a file descriptor, and draws randomness
   only from an explicitly seeded Rng — so the same script of (tick,
   line) inputs produces a byte-identical response stream and trace
   (test/prop.ml replays exactly this).  bin/bwclusterd.ml maps wall
   time and Unix sockets onto this interface; tests and E17 drive it
   with the in-memory Script transport.

   Robustness machinery, in the order a tick runs it:

   - token-bucket refill, then due retries (failed ingestions coming
     back with jittered exponential backoff);
   - budgeted queue work in class-priority order — churn first (up to
     [churn_share] of the budget, so queries cannot be starved by a
     storm), then queries (deadline-checked at dequeue: an expired
     query answers a typed TIMEOUT, it is never silently dropped),
     then measurement gossip;
   - budgeted stabilization: at most [stabilize_budget] protocol rounds
     (a JOIN or LEAVE already reached the protocol locally when it was
     applied).  While the aggregation is stale, queries are served from
     the last consistent Find_cluster.Index — membership-fresh by delta
     maintenance — with an explicit staleness bound instead of blocking
     on reconvergence;
   - mode transitions (backlog-driven degraded mode) and the watchdog
     (stalled convergence enters degraded mode);
   - snapshot scheduling ([take_snapshot_request] tells the driver to
     rotate one out through Lifecycle; the reactor itself does no IO). *)

module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset
module Dynamic = Bwc_core.Dynamic
module Protocol = Bwc_core.Protocol
module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace

type config = {
  admission : Admission.config;
  work_budget : int;
  churn_share : int;
  stabilize_budget : int;
  default_deadline : int;
  degrade_backlog : int;
  stall_after : int;
  meas_refresh : int;
  ingest_fail : float;
  retry_base : int;
  retry_jitter : int;
  max_attempts : int;
  snapshot_every : int option;
  seed : int;
}

(* ceiling (ticks) on an ingest retry's exponential backoff *)
let retry_cap = 16

let default_config =
  {
    admission =
      {
        Admission.churn = { Admission.cap = 64; rate = 4; burst = 8 };
        query = { Admission.cap = 48; rate = 16; burst = 32 };
        meas = { Admission.cap = 256; rate = 32; burst = 64 };
      };
    work_budget = 8;
    churn_share = 4;
    stabilize_budget = 4;
    default_deadline = 16;
    degrade_backlog = 32;
    stall_after = 12;
    meas_refresh = 32;
    ingest_fail = 0.;
    retry_base = 2;
    retry_jitter = 2;
    max_attempts = 4;
    snapshot_every = None;
    seed = 0x5eed;
  }

type mode = Normal | Degraded | Draining

let mode_name = function
  | Normal -> "normal"
  | Degraded -> "degraded"
  | Draining -> "draining"

type ingest_op =
  | Op_join of int
  | Op_leave of int
  | Op_meas of { src : int; dst : int; mbps : float }

type item =
  | It_query of {
      id : string;
      conn : int;
      k : int;
      b : float;
      deadline : int;
      enq : int;
    }
  | It_ingest of {
      id : string;
      conn : int;
      cls : Admission.cls;
      op : ingest_op;
      enq : int;
      attempts : int;
    }

type output = { conn : int; response : Wire.response }

type t = {
  config : config;
  dyn : Dynamic.t;
  adm : item Admission.t;
  rng : Rng.t;
  metrics : Registry.t option;
  trace : Trace.t option;
  mutable mode : mode;
  mutable dirty : bool;
  mutable dirty_since : int;
  mutable last_converged : int;
  mutable meas_accum : int;
  mutable retries : (int * int * item) list; (* (due, seq, ingest item), sorted *)
  mutable retry_seq : int;
  mutable last_snapshot : int;
  mutable snapshot_due : bool;
  mutable churn_this_tick : bool;
}

let bump t name labels =
  match t.metrics with
  | Some m -> Registry.Counter.incr (Registry.counter m ~labels name)
  | None -> ()

let observe t name labels v =
  match t.metrics with
  | Some m -> Registry.Histogram.observe (Registry.histogram m ~labels name) v
  | None -> ()

let set_gauge t name v =
  match t.metrics with
  | Some m -> Registry.Gauge.set (Registry.gauge m name) v
  | None -> ()

let emit t ev = match t.trace with Some tr -> Trace.emit tr ev | None -> ()

let create ?metrics ?trace config dyn =
  if config.work_budget < 1 || config.churn_share < 0 then
    invalid_arg "Reactor.create: bad work budget";
  if config.max_attempts < 1 || config.retry_base < 1 then
    invalid_arg "Reactor.create: bad retry policy";
  (* force the index now: the first degraded answer must not pay the
     O(n^3) initial build inside a single tick *)
  let (_ : Bwc_core.Find_cluster.Index.t) = Dynamic.index dyn in
  (* a system restored mid-convergence still has rounds to run *)
  let dirty = not (Protocol.quiescent (Dynamic.protocol dyn)) in
  {
    config;
    dyn;
    adm = Admission.create ?metrics config.admission;
    rng = Rng.create config.seed;
    metrics;
    trace;
    mode = Normal;
    dirty;
    dirty_since = 0;
    last_converged = 0;
    meas_accum = 0;
    retries = [];
    retry_seq = 0;
    last_snapshot = 0;
    snapshot_due = false;
    churn_this_tick = false;
  }

let system t = t.dyn
let mode t = t.mode
let staleness t ~now = if t.dirty then now - t.last_converged else 0

let backlog t =
  Admission.backlog t.adm + List.length t.retries

let drained t = t.mode = Draining && backlog t = 0

(* ----- admission ----- *)

let item_id = function It_query { id; _ } -> id | It_ingest { id; _ } -> id
let item_cls = function It_query _ -> Admission.Query | It_ingest { cls; _ } -> cls

let shed t ~now ~conn item reason =
  let cls = Admission.cls_name (item_cls item) in
  let reason = Admission.shed_reason_name reason in
  emit t (Trace.Daemon_shed { round = now; cls; reason });
  { conn; response = Wire.Shed { id = item_id item; cls; reason } }

(* shed outside Admission.offer (draining refusals) still counts in the
   same metric family, so shed accounting has one source of truth *)
let shed_draining t ~now ~conn item =
  bump t "daemon.shed"
    [
      ("class", Admission.cls_name (item_cls item));
      ("reason", Admission.shed_reason_name Admission.Draining);
    ];
  shed t ~now ~conn item Admission.Draining

let offer t ~now ~conn item =
  if t.mode = Draining then [ shed_draining t ~now ~conn item ]
  else
    match Admission.offer t.adm (item_cls item) item with
    | Ok () ->
        emit t
          (Trace.Daemon_admit
             { round = now; cls = Admission.cls_name (item_cls item); conn });
        []
    | Error reason -> [ shed t ~now ~conn item reason ]

(* ----- work processing ----- *)

let mark_dirty t ~now =
  if not t.dirty then begin
    t.dirty <- true;
    t.dirty_since <- now
  end

let enter_degraded t ~now =
  if t.mode = Normal then begin
    t.mode <- Degraded;
    bump t "daemon.degraded_entries" [];
    emit t
      (Trace.Daemon_degrade { round = now; entered = true; staleness = staleness t ~now })
  end

let exit_degraded t ~now =
  if t.mode = Degraded then begin
    t.mode <- Normal;
    emit t (Trace.Daemon_degrade { round = now; entered = false; staleness = 0 })
  end

let insert_retry t due item =
  let seq = t.retry_seq in
  t.retry_seq <- seq + 1;
  let entry = (due, seq, item) in
  let rec ins = function
    | [] -> [ entry ]
    | (d, s, _) as hd :: tl ->
        if due < d || (due = d && seq < s) then entry :: hd :: tl else hd :: ins tl
  in
  t.retries <- ins t.retries

let finish t ~now ~cls ~enq =
  observe t "daemon.latency_ticks" [ ("class", Admission.cls_name cls) ] (max 0 (now - enq))

let process_ingest t ~now ~out ~id ~conn ~cls ~op ~enq ~attempts =
  let push response = out := { conn; response } :: !out in
  let cls_n = Admission.cls_name cls in
  let fails = t.config.ingest_fail > 0. && Rng.float t.rng 1.0 < t.config.ingest_fail in
  if fails then begin
    let attempts = attempts + 1 in
    if attempts >= t.config.max_attempts then begin
      bump t "daemon.rejected" [ ("class", cls_n) ];
      finish t ~now ~cls ~enq;
      push (Wire.Rejected { id; reason = "ingest_failed"; attempts })
    end
    else begin
      let backoff = min retry_cap (t.config.retry_base * (1 lsl (attempts - 1))) in
      let jitter =
        if t.config.retry_jitter > 0 then Rng.int t.rng t.config.retry_jitter else 0
      in
      let due = now + backoff + jitter in
      bump t "daemon.retries" [ ("class", cls_n) ];
      emit t (Trace.Daemon_retry { round = now; cls = cls_n; attempt = attempts; due });
      insert_retry t due (It_ingest { id; conn; cls; op; enq; attempts })
    end
  end
  else begin
    (match op with
    | Op_join h ->
        let applied = Dynamic.apply_deferred t.dyn [ Bwc_sim.Churn.Join h ] > 0 in
        if applied then mark_dirty t ~now;
        t.churn_this_tick <- true;
        push (Wire.Acked { id; cls = cls_n; applied })
    | Op_leave h ->
        let applied = Dynamic.apply_deferred t.dyn [ Bwc_sim.Churn.Leave h ] > 0 in
        if applied then mark_dirty t ~now;
        t.churn_this_tick <- true;
        push (Wire.Acked { id; cls = cls_n; applied })
    | Op_meas _ ->
        (* the synthetic dataset is the measurement oracle, so a feed
           sample does not rewrite ground truth — the value is dropped
           and the ACK says so with [applied=0].  What the sample costs
           the daemon is aggregation freshness: every [meas_refresh]
           accepted samples force the protocol to repropagate, which is
           the work a live feed creates *)
        t.meas_accum <- t.meas_accum + 1;
        if t.meas_accum >= t.config.meas_refresh then begin
          t.meas_accum <- 0;
          Protocol.mark_all_dirty (Dynamic.protocol t.dyn);
          mark_dirty t ~now
        end;
        push (Wire.Acked { id; cls = cls_n; applied = false }));
    finish t ~now ~cls ~enq
  end

let process_query t ~now ~out ~id ~conn ~k ~b ~deadline ~enq =
  let push response = out := { conn; response } :: !out in
  let waited = now - enq in
  finish t ~now ~cls:Admission.Query ~enq;
  if waited > deadline then begin
    bump t "daemon.timeouts" [];
    emit t (Trace.Daemon_timeout { round = now; waited; deadline });
    push (Wire.Timeout { id; waited; deadline })
  end
  else if t.dirty || t.mode = Degraded then begin
    (* stale aggregation: answer from the last consistent index — kept
       membership-fresh by delta — with an explicit staleness bound *)
    let cluster = Dynamic.query_centralized t.dyn ~k ~b in
    let staleness = staleness t ~now in
    bump t "daemon.answers" [ ("served", "index") ];
    push
      (Wire.Answer
         {
           id;
           cluster;
           hops = 0;
           served = Wire.Index;
           degraded = true;
           staleness;
           bounds = None;
         })
  end
  else begin
    let r = Dynamic.query t.dyn ~k ~b in
    bump t "daemon.answers" [ ("served", "live") ];
    push
      (Wire.Answer
         {
           id;
           cluster = r.Bwc_core.Query.cluster;
           hops = r.Bwc_core.Query.hops;
           served = Wire.Live;
           degraded = false;
           staleness = 0;
           bounds = None;
         })
  end

let process_item t ~now ~out = function
  | It_query { id; conn; k; b; deadline; enq } ->
      process_query t ~now ~out ~id ~conn ~k ~b ~deadline ~enq
  | It_ingest { id; conn; cls; op; enq; attempts } ->
      process_ingest t ~now ~out ~id ~conn ~cls ~op ~enq ~attempts

(* class-priority dequeue with a churn cap: churn outranks everything
   up to [churn_share] items per tick, queries outrank gossip, and
   leftover budget may return to churn once the other lanes are dry *)
let pick t used_churn =
  let take_churn () =
    match Admission.take t.adm Admission.Churn with
    | Some it ->
        incr used_churn;
        Some it
    | None -> None
  in
  let within_share = !used_churn < t.config.churn_share in
  match (if within_share then take_churn () else None) with
  | Some it -> Some it
  | None -> (
      match Admission.take t.adm Admission.Query with
      | Some it -> Some it
      | None -> (
          match Admission.take t.adm Admission.Meas with
          | Some it -> Some it
          | None -> if within_share then None else take_churn ()))

(* ----- the tick ----- *)

let stabilization t ~now =
  if t.dirty then begin
    let allowed =
      match t.mode with
      | Normal | Draining -> true
      (* degraded: every membership change sets reconvergence back, so
         only attempt it on quiet ticks — the index serves meanwhile *)
      | Degraded -> not t.churn_this_tick
    in
    if allowed then begin
      let active = ref true in
      let rounds = ref 0 in
      while !active && !rounds < t.config.stabilize_budget do
        incr rounds;
        active := Protocol.run_round (Dynamic.protocol t.dyn)
      done;
      if not !active then begin
        t.dirty <- false;
        t.last_converged <- now
      end
    end
  end
  else t.last_converged <- now

let watchdog t ~now =
  if t.dirty && now - t.dirty_since >= t.config.stall_after then begin
    bump t "daemon.watchdog_fires" [];
    emit t (Trace.Daemon_watchdog { round = now; stalled = now - t.dirty_since });
    (* stop queries from waiting on the stalled convergence *)
    enter_degraded t ~now;
    t.dirty_since <- now
  end

let tick t ~now =
  let out = ref [] in
  t.churn_this_tick <- false;
  Admission.refill t.adm;
  (* overdue retries are admitted work: they run before fresh queue
     items and do not compete for this tick's budget *)
  let due, later = List.partition (fun (d, _, _) -> d <= now) t.retries in
  t.retries <- later;
  List.iter (fun (_, _, item) -> process_item t ~now ~out item) due;
  let budget = ref t.config.work_budget in
  let used_churn = ref 0 in
  let exhausted = ref false in
  while (not !exhausted) && !budget > 0 do
    match pick t used_churn with
    | None -> exhausted := true
    | Some item ->
        decr budget;
        process_item t ~now ~out item
  done;
  stabilization t ~now;
  (* backlog-driven degradation: enter when the queues say the reactor
     is behind, leave once converged and caught up *)
  let bl = backlog t in
  if t.mode = Normal && bl >= t.config.degrade_backlog then enter_degraded t ~now;
  if t.mode = Degraded && (not t.dirty) && bl * 2 <= t.config.degrade_backlog then
    exit_degraded t ~now;
  watchdog t ~now;
  (match t.config.snapshot_every with
  | Some every when every > 0 && now - t.last_snapshot >= every ->
      t.last_snapshot <- now;
      t.snapshot_due <- true
  | Some _ | None -> ());
  set_gauge t "daemon.staleness" (staleness t ~now);
  set_gauge t "daemon.backlog" bl;
  List.rev !out

(* ----- request entry ----- *)

let health t ~now =
  Wire.Health_report
    {
      mode = mode_name t.mode;
      members = Dynamic.member_count t.dyn;
      staleness = staleness t ~now;
      depth_churn = Admission.depth t.adm Admission.Churn;
      depth_query = Admission.depth t.adm Admission.Query;
      depth_meas = Admission.depth t.adm Admission.Meas;
    }

let stats t =
  match t.metrics with
  | Some m -> Wire.Stats_json (Registry.to_json (Registry.snapshot m))
  | None -> Wire.Stats_json "{}"

let drain t ~now =
  if t.mode <> Draining then begin
    if t.mode = Degraded then exit_degraded t ~now;
    t.mode <- Draining;
    bump t "daemon.drains" []
  end

let take_snapshot_request t =
  let due = t.snapshot_due in
  t.snapshot_due <- false;
  due

let host_ok t h = h >= 0 && h < Dataset.size (Dynamic.dataset t.dyn)

(* a bandwidth is a positive, finite Mbps figure: nan, inf and overflowing
   literals such as 1e400 are malformed *)
let positive_finite v = v > 0. && Float.is_finite v

let handle_line t ~now ~conn line =
  match Wire.parse line with
  | Error reason ->
      bump t "daemon.parse_errors" [];
      [ { conn; response = Wire.Parse_error { reason } } ]
  | Ok req -> (
      match req with
      | Wire.Ping -> [ { conn; response = Wire.Pong } ]
      | Wire.Health -> [ { conn; response = health t ~now } ]
      | Wire.Stats -> [ { conn; response = stats t } ]
      | Wire.Snapshot_req ->
          t.snapshot_due <- true;
          [ { conn; response = Wire.Snapshotting } ]
      | Wire.Shutdown ->
          drain t ~now;
          [ { conn; response = Wire.Draining } ]
      | Wire.Query { id; k; b; deadline } ->
          if k < 2 || not (positive_finite b) then
            [
              {
                conn;
                response = Wire.Rejected { id; reason = "bad_request"; attempts = 0 };
              };
            ]
          else
            let deadline =
              match deadline with
              | Some d when d > 0 -> d
              | Some _ | None -> t.config.default_deadline
            in
            offer t ~now ~conn (It_query { id; conn; k; b; deadline; enq = now })
      | Wire.Join { id; host } ->
          if not (host_ok t host) then
            [
              {
                conn;
                response = Wire.Rejected { id; reason = "bad_host"; attempts = 0 };
              };
            ]
          else
            offer t ~now ~conn
              (It_ingest
                 {
                   id;
                   conn;
                   cls = Admission.Churn;
                   op = Op_join host;
                   enq = now;
                   attempts = 0;
                 })
      | Wire.Leave { id; host } ->
          if not (host_ok t host) then
            [
              {
                conn;
                response = Wire.Rejected { id; reason = "bad_host"; attempts = 0 };
              };
            ]
          else
            offer t ~now ~conn
              (It_ingest
                 {
                   id;
                   conn;
                   cls = Admission.Churn;
                   op = Op_leave host;
                   enq = now;
                   attempts = 0;
                 })
      | Wire.Measure { id; src; dst; mbps } ->
          if
            (not (host_ok t src)) || (not (host_ok t dst)) || src = dst
            || not (positive_finite mbps)
          then
            [
              {
                conn;
                response = Wire.Rejected { id; reason = "bad_measurement"; attempts = 0 };
              };
            ]
          else
            offer t ~now ~conn
              (It_ingest
                 {
                   id;
                   conn;
                   cls = Admission.Meas;
                   op = Op_meas { src; dst; mbps };
                   enq = now;
                   attempts = 0;
                 }))
