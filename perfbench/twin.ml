(* Per-layer attribution by twin replay.

   Nothing in the library is instrumented and OCaml offers no hook into
   [Reactor.tick].  So the traced run builds a same-seed twin
   [Dynamic.t] from the public layer calls (timed: that is the setup
   breakdown), and after every reactor tick re-issues the tick's work on
   the twin, timing each call:

   - per response, in processing order: the applied churn
     ([Dynamic.apply_deferred]), the live or index query, and every
     [meas_refresh]-th MEAS's repropagation ([Protocol.mark_all_dirty]);
   - then the stabilization the reactor's public counters reveal: a
     [Protocol.refresh_topology] when membership moved (or the watchdog
     fired) and exactly as many [Protocol.run_round]s as the reactor ran.

   The twin's rendered answers must equal the reactor's byte for byte
   and its protocol counters must match after every tick; the first
   divergence stops the replay and every later tick is reported as
   unattributed, never estimated.  Index deltas are timed on a third,
   shadow [Find_cluster.Index], so the twin's own apply time splits into
   ensemble work and the delta. *)

module Rng = Bwc_stats.Rng
module Registry = Bwc_obs.Registry
module Dataset = Bwc_dataset.Dataset
module Space = Bwc_metric.Space
module Ensemble = Bwc_predtree.Ensemble
module Dynamic = Bwc_core.Dynamic
module Protocol = Bwc_core.Protocol
module Classes = Bwc_core.Classes
module Index = Bwc_core.Find_cluster.Index
module Reactor = Bwc_daemon.Reactor
module Wire = Bwc_daemon.Wire
module Admission = Bwc_daemon.Admission

let now = Unix.gettimeofday

exception Diverged of string

type t = {
  reactor : Reactor.t;
  registry : Registry.t;
  dyn : Dynamic.t;
  shadow : Index.t;
  adm : unit Admission.t;  (* shadow lanes, timed per offer *)
  meas_refresh : int;
  mutable meas_accum : int;
  mutable needs_refresh : bool;
  mutable diverged : string option;
  mutable measuring : bool;
  mutable rounds0 : int;
  mutable msgs0 : int;
  mutable watchdog0 : int;
  (* setup breakdown *)
  ensemble_s : float;
  aggregation_s : float;
  aggregation_rounds : int;
  index_s : float;
  (* samples, seconds *)
  parse : Sample.t;
  render : Sample.t;
  handle : Sample.t;
  offer : Sample.t;
  tick_t : Sample.t;
  self_t : Sample.t;
  query_t : Sample.t;
  hops : Sample.t;
  round_t : Sample.t;
  refresh_t : Sample.t;
  repropagate_t : Sample.t;
  apply_t : Sample.t;
  delta_t : Sample.t;
  join_t : Sample.t;
  index_t : Sample.t;
  encode_t : Sample.t;
  lifecycle_t : Sample.t;
  mutable bytes : int;
  mutable ticks : int;
  mutable degraded_ticks : int;
  mutable backlog_max : int;
  mutable rounds : int;
  mutable msgs : int;
  mutable churn : int;
  mutable applied : int;
  mutable checked : int;
  mutable unattributed : int;
  mutable layer_s : float;
  mutable tick_s : float;
}

let watchdog_fires t =
  Registry.Counter.value (Registry.counter t.registry "daemon.watchdog_fires")

let reactor_protocol t = Dynamic.protocol (Reactor.system t.reactor)

(* Dynamic.create's construction, one public layer call at a time *)
let create (spec : Load.spec) ds ~registry reactor =
  let c = Bwc_metric.Bandwidth.default_c in
  let rng = Rng.create Load.system_seed in
  let space = Dataset.metric ~c ds in
  let t0 = now () in
  let fw = Ensemble.build ~rng:(Rng.split rng) ~members:(Load.initial_members spec) space in
  let t1 = now () in
  let classes = Classes.of_percentiles ~c ~count:8 ds in
  let t2 = now () in
  let protocol = Protocol.create ~rng:(Rng.split rng) ~classes fw in
  let aggregation_rounds = Protocol.run_aggregation protocol in
  let t3 = now () in
  let cached = Space.cached space in
  let idx = Index.build_subset cached (Ensemble.members fw) in
  let t4 = now () in
  let dyn =
    Dynamic.assemble ~dataset:ds ~c ~fw ~protocol ~classes ~rng_state:(Rng.state rng)
      ~index:(Some idx) ()
  in
  let s () = Sample.create () in
  {
    reactor;
    registry;
    dyn;
    shadow = Index.of_dump cached (Index.dump idx);
    adm = Admission.create (Drive.config spec).Reactor.admission;
    meas_refresh = (Drive.config spec).Reactor.meas_refresh;
    meas_accum = 0;
    needs_refresh = false;
    diverged = None;
    measuring = false;
    rounds0 = 0;
    msgs0 = 0;
    watchdog0 = 0;
    ensemble_s = t1 -. t0;
    aggregation_s = t3 -. t2;
    aggregation_rounds;
    index_s = t4 -. t3;
    parse = s ();
    render = s ();
    handle = s ();
    offer = s ();
    tick_t = s ();
    self_t = s ();
    query_t = s ();
    hops = s ();
    round_t = s ();
    refresh_t = s ();
    repropagate_t = s ();
    apply_t = s ();
    delta_t = s ();
    join_t = s ();
    index_t = s ();
    encode_t = s ();
    lifecycle_t = s ();
    bytes = 0;
    ticks = 0;
    degraded_ticks = 0;
    backlog_max = 0;
    rounds = 0;
    msgs = 0;
    churn = 0;
    applied = 0;
    checked = 0;
    unattributed = 0;
    layer_s = 0.;
    tick_s = 0.;
  }

let record t sample dt = if t.measuring then Sample.add sample dt

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let cls_of = function
  | Load.Query _ -> Admission.Query
  | Load.Join _ | Load.Leave _ -> Admission.Churn
  | Load.Meas -> Admission.Meas

let on_line t (r : Load.req) ~handle_s =
  record t t.handle handle_s;
  let _, dt = time (fun () -> Wire.parse r.line) in
  record t t.parse dt;
  let cls = cls_of r.op in
  let _, dt = time (fun () -> Admission.offer t.adm cls ()) in
  record t t.offer dt;
  ignore (Admission.take t.adm cls : unit option)

let before_tick t =
  Admission.refill t.adm;
  let p = reactor_protocol t in
  t.rounds0 <- Protocol.rounds_run p;
  t.msgs0 <- Protocol.messages_sent p;
  t.watchdog0 <- watchdog_fires t

(* re-issue one tick's work on the twin; returns the attributed time *)
let replay t ~lookup outs =
  let layer = ref 0. in
  let timed sample f =
    let r, dt = time f in
    layer := !layer +. dt;
    record t sample dt;
    (r, dt)
  in
  List.iter
    (fun (o : Reactor.output) ->
      let rendered, dt = time (fun () -> Wire.render o.response) in
      record t t.render dt;
      match (o.response, Option.bind (Drive.response_id o.response) lookup) with
      | Wire.Answer a, Some (Load.Query { k; b }) ->
          let mine =
            if a.served = Wire.Live then begin
              let r, _ = timed t.query_t (fun () -> Dynamic.query t.dyn ~k ~b) in
              record t t.hops (float_of_int r.Bwc_core.Query.hops);
              Wire.Answer
                {
                  id = a.id;
                  cluster = r.Bwc_core.Query.cluster;
                  hops = r.Bwc_core.Query.hops;
                  served = Wire.Live;
                  degraded = false;
                  staleness = 0;
                  bounds = None;
                }
            end
            else
              let cluster, _ =
                timed t.index_t (fun () -> Dynamic.query_centralized t.dyn ~k ~b)
              in
              Wire.Answer { a with cluster }
          in
          t.checked <- t.checked + 1;
          let twin = Wire.render mine in
          if twin <> rendered then
            raise (Diverged (Printf.sprintf "reactor %S, twin %S" rendered twin))
      | Wire.Acked a, Some ((Load.Join h | Load.Leave h) as op) ->
          let ev =
            match op with
            | Load.Join _ -> Bwc_sim.Churn.Join h
            | _ -> Bwc_sim.Churn.Leave h
          in
          let n, apply_dt =
            timed t.apply_t (fun () -> Dynamic.apply_deferred t.dyn [ ev ])
          in
          if t.measuring then t.churn <- t.churn + 1;
          if n > 0 then begin
            let (), delta_dt =
              time (fun () ->
                  match op with
                  | Load.Join _ -> Index.add_host t.shadow h
                  | _ -> Index.remove_host t.shadow h)
            in
            record t t.delta_t delta_dt;
            record t t.join_t (apply_dt -. delta_dt);
            if t.measuring then t.applied <- t.applied + 1;
            t.needs_refresh <- true
          end;
          if (n > 0) <> a.applied then
            raise (Diverged (Printf.sprintf "ACK %S, twin applied %d" rendered n))
      | Wire.Acked _, Some Load.Meas ->
          t.meas_accum <- t.meas_accum + 1;
          if t.meas_accum >= t.meas_refresh then begin
            t.meas_accum <- 0;
            ignore
              (timed t.repropagate_t (fun () ->
                   Protocol.mark_all_dirty (Dynamic.protocol t.dyn)))
          end
      | (Wire.Answer _ | Wire.Acked _), _ ->
          raise (Diverged ("no request behind " ^ rendered))
      | _ -> ())
    outs;
  let rp = reactor_protocol t and p = Dynamic.protocol t.dyn in
  let rounds = Protocol.rounds_run rp - t.rounds0 in
  if rounds > 0 then begin
    if t.needs_refresh then begin
      ignore (timed t.refresh_t (fun () -> Protocol.refresh_topology p));
      t.needs_refresh <- false
    end;
    for _ = 1 to rounds do
      ignore (timed t.round_t (fun () -> Protocol.run_round p))
    done
  end;
  if watchdog_fires t > t.watchdog0 then t.needs_refresh <- true;
  if Protocol.rounds_run p <> Protocol.rounds_run rp
     || Protocol.messages_sent p <> Protocol.messages_sent rp
  then raise (Diverged "protocol rounds or messages differ after the tick");
  if t.measuring then begin
    t.rounds <- t.rounds + rounds;
    t.msgs <- t.msgs + (Protocol.messages_sent rp - t.msgs0)
  end;
  !layer

let on_tick t ~tick_s ~lookup outs =
  if t.measuring then begin
    t.ticks <- t.ticks + 1;
    Sample.add t.tick_t tick_s;
    if Reactor.mode t.reactor = Reactor.Degraded then
      t.degraded_ticks <- t.degraded_ticks + 1;
    t.backlog_max <- max t.backlog_max (Reactor.backlog t.reactor)
  end;
  match t.diverged with
  | Some _ -> if t.measuring then t.unattributed <- t.unattributed + 1
  | None -> (
      match replay t ~lookup outs with
      | layer ->
          if t.measuring then begin
            Sample.add t.self_t (tick_s -. layer);
            t.layer_s <- t.layer_s +. layer;
            t.tick_s <- t.tick_s +. tick_s
          end
      | exception Diverged why ->
          t.diverged <- Some why;
          if t.measuring then t.unattributed <- t.unattributed + 1)

let on_snapshot t ~lifecycle_s dyn =
  Sample.add t.lifecycle_t lifecycle_s;
  let bytes, dt = time (fun () -> Bwc_persist.Snapshot.encode (`Dynamic dyn)) in
  Sample.add t.encode_t dt;
  t.bytes <- String.length bytes

let hooks t =
  {
    Drive.set_measuring = (fun m -> t.measuring <- m);
    on_line = on_line t;
    before_tick = (fun () -> before_tick t);
    on_tick = on_tick t;
    on_snapshot = on_snapshot t;
  }
