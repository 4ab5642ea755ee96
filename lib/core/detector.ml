module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace
module Rng = Bwc_stats.Rng

type config = {
  heartbeat_every : int;
  suspect_after : int;
  confirm_after : int;
  jitter : int;
}

let default_config =
  { heartbeat_every = 2; suspect_after = 6; confirm_after = 10; jitter = 0 }

type state = Alive | Suspected | Confirmed

(* One monitored directed edge of the anchor overlay: [watcher] keeps a
   lease on [peer] that every received message renews. *)
type edge = {
  mutable last_heard : int;
  mutable state : state;
  slack : int; (* seeded per-edge stretch of both thresholds *)
}

type t = {
  cfg : config;
  rng : Rng.t;
  edges : (int * int, edge) Hashtbl.t; (* (watcher, peer) *)
  trace : Trace.t option;
  c_suspects : Registry.Counter.t;
  c_confirms : Registry.Counter.t;
}

let validate cfg =
  if cfg.heartbeat_every < 1 then invalid_arg "Detector: heartbeat_every < 1";
  if cfg.suspect_after < cfg.heartbeat_every + 2 then
    invalid_arg "Detector: suspect_after must exceed heartbeat_every + 1";
  if cfg.confirm_after <= cfg.suspect_after then
    invalid_arg "Detector: confirm_after must exceed suspect_after";
  if cfg.jitter < 0 then invalid_arg "Detector: jitter < 0"

let create ?metrics ?trace ~rng cfg =
  validate cfg;
  let metrics = match metrics with Some m -> m | None -> Registry.create () in
  {
    cfg;
    rng;
    edges = Hashtbl.create 64;
    trace;
    c_suspects = Registry.counter metrics "detector.suspects";
    c_confirms = Registry.counter metrics "detector.confirms";
  }

let config t = t.cfg

let emit t ev = match t.trace with Some tr -> Trace.emit tr ev | None -> ()

let watch t ~watcher ~peer ~round =
  let slack = if t.cfg.jitter = 0 then 0 else Rng.int t.rng (t.cfg.jitter + 1) in
  Hashtbl.replace t.edges (watcher, peer) { last_heard = round; state = Alive; slack }

let unwatch t ~watcher ~peer = Hashtbl.remove t.edges (watcher, peer)

let heard t ~watcher ~peer ~round =
  match Hashtbl.find_opt t.edges (watcher, peer) with
  | None -> ()
  | Some e ->
      if round > e.last_heard then e.last_heard <- round;
      (* any sign of life revives a suspected (or even confirmed but not
         yet repaired) peer *)
      e.state <- Alive

let state t ~watcher ~peer =
  match Hashtbl.find_opt t.edges (watcher, peer) with
  | Some e -> e.state
  | None -> Alive

let suspects t ~watcher ~peer =
  match state t ~watcher ~peer with
  | Suspected | Confirmed -> true
  | Alive -> false

let tick t ~round ~live =
  let confirmed = ref [] in
  (* sorted traversal: transition order decides trace-event order and the
     order repairs are applied in, so bucket order would leak hash-layout
     nondeterminism into the run *)
  Bwc_stats.Tbl.iter_sorted
    (fun (watcher, peer) e ->
      (* a dead watcher hears nothing by definition; its frozen leases
         must not let it "confirm" live peers dead from beyond the grave *)
      if live watcher then begin
        let silence = round - e.last_heard in
        match e.state with
        | Alive when silence >= t.cfg.suspect_after + e.slack ->
            e.state <- Suspected;
            Registry.Counter.incr t.c_suspects;
            emit t (Trace.Suspect { round; by = watcher; node = peer })
        | Suspected when silence >= t.cfg.confirm_after + e.slack ->
            e.state <- Confirmed;
            Registry.Counter.incr t.c_confirms;
            emit t (Trace.Confirm_dead { round; by = watcher; node = peer });
            confirmed := peer :: !confirmed
        | Alive | Suspected | Confirmed -> ()
      end)
    t.edges;
  List.sort_uniq compare !confirmed

(* ----- persistence ----- *)

type edge_dump = {
  d_watcher : int;
  d_peer : int;
  d_last_heard : int;
  d_state : state;
  d_slack : int;
}

type dump = {
  d_config : config;
  d_rng : int64;
  d_edges : edge_dump list; (* ascending (watcher, peer) *)
}

let dump t =
  let edges = ref [] in
  Bwc_stats.Tbl.iter_sorted
    (fun (watcher, peer) e ->
      edges :=
        {
          d_watcher = watcher;
          d_peer = peer;
          d_last_heard = e.last_heard;
          d_state = e.state;
          d_slack = e.slack;
        }
        :: !edges)
    t.edges;
  { d_config = t.cfg; d_rng = Rng.state t.rng; d_edges = List.rev !edges }

let of_dump ?metrics ?trace d =
  let t = create ?metrics ?trace ~rng:(Rng.of_state d.d_rng) d.d_config in
  List.iter
    (fun e ->
      if e.d_slack < 0 || e.d_slack > d.d_config.jitter then
        invalid_arg "Detector.of_dump: slack outside the jitter range";
      if Hashtbl.mem t.edges (e.d_watcher, e.d_peer) then
        invalid_arg "Detector.of_dump: duplicate edge";
      Hashtbl.replace t.edges (e.d_watcher, e.d_peer)
        { last_heard = e.d_last_heard; state = e.d_state; slack = e.d_slack })
    d.d_edges;
  t

let pending t ~round =
  let p = ref false in
  (* order-independent: a pure exists-scan (commutative OR) over the
     monitored edges; no state, counter or trace output depends on the
     visit order, and sorting every key each round would cost more than
     the scan itself *)
  (* bwclint: allow no-unordered-hashtbl-iter -- pure exists-scan (commutative OR); no state or trace depends on visit order *)
  Hashtbl.iter
    (fun _ e -> if round - e.last_heard > t.cfg.heartbeat_every + 1 then p := true)
    t.edges;
  !p
