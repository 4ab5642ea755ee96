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

(* One watched directed link of the anchor overlay: the watcher keeps a
   lease on the peer that every received message renews. *)
type lease = {
  last_heard : int;
  state : state;
  slack : int; (* seeded per-link stretch of both thresholds *)
}

type t = {
  cfg : config;
  rng : Rng.t;
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
    trace;
    c_suspects = Registry.counter metrics "detector.suspects";
    c_confirms = Registry.counter metrics "detector.confirms";
  }

let config t = t.cfg

let emit t ev = match t.trace with Some tr -> Trace.emit tr ev | None -> ()

let lease t ~round =
  let slack = if t.cfg.jitter = 0 then 0 else Rng.int t.rng (t.cfg.jitter + 1) in
  { last_heard = round; state = Alive; slack }

(* any sign of life revives a suspected (or even confirmed but not yet
   repaired) peer *)
let heard l ~round =
  if round <= l.last_heard && l.state = Alive then l
  else { l with last_heard = Int.max round l.last_heard; state = Alive }

let suspects l =
  match l.state with
  | Suspected | Confirmed -> true
  | Alive -> false

let advance t ~round ~watcher ~peer l =
  let silence = round - l.last_heard in
  match l.state with
  | Alive when silence >= t.cfg.suspect_after + l.slack ->
      Registry.Counter.incr t.c_suspects;
      emit t (Trace.Suspect { round; by = watcher; node = peer });
      { l with state = Suspected }
  | Suspected when silence >= t.cfg.confirm_after + l.slack ->
      Registry.Counter.incr t.c_confirms;
      emit t (Trace.Confirm_dead { round; by = watcher; node = peer });
      { l with state = Confirmed }
  | Alive | Suspected | Confirmed -> l

let overdue t ~round l = round - l.last_heard > t.cfg.heartbeat_every + 1

(* ----- persistence ----- *)

type dump = {
  d_config : config;
  d_rng : int64;
}

let dump t = { d_config = t.cfg; d_rng = Rng.state t.rng }

let of_dump ?metrics ?trace d = create ?metrics ?trace ~rng:(Rng.of_state d.d_rng) d.d_config
