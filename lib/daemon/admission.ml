(* Bounded, rate-limited, class-prioritized admission.

   Every request entering the reactor passes through one of three lanes
   — churn events, cluster queries, measurement gossip — each a bounded
   FIFO behind an integer token bucket.  Admission decisions are typed:
   a refused request is shed with a reason the client sees, never
   silently dropped.  Priority is enforced twice: at the door
   (measurement gossip is shed outright while the churn lane is under
   pressure — churn and queries matter more than gossip freshness) and
   at dequeue time (the reactor drains lanes in class-priority order,
   see Reactor). *)

module Registry = Bwc_obs.Registry

type cls = Churn | Query | Meas

let cls_name = function Churn -> "churn" | Query -> "query" | Meas -> "meas"
let all_classes = [ Churn; Query; Meas ]

type shed_reason = Queue_full | Rate_limited | Pressure | Draining

let shed_reason_name = function
  | Queue_full -> "queue_full"
  | Rate_limited -> "rate_limit"
  | Pressure -> "pressure"
  | Draining -> "draining"

type limits = { cap : int; rate : int; burst : int }

type config = { churn : limits; query : limits; meas : limits }

let limits_of config = function
  | Churn -> config.churn
  | Query -> config.query
  | Meas -> config.meas

type 'a lane = {
  limits : limits;
  q : 'a Queue.t;
  mutable tokens : int;
  depth_gauge : Registry.Gauge.t option;
}

type 'a t = {
  config : config;
  churn_lane : 'a lane;
  query_lane : 'a lane;
  meas_lane : 'a lane;
  metrics : Registry.t option;
}

let make_lane metrics config cls =
  let limits = limits_of config cls in
  if limits.cap < 1 then invalid_arg "Admission.create: cap < 1";
  if limits.rate < 0 || limits.burst < 1 then
    invalid_arg "Admission.create: bad token bucket";
  {
    limits;
    q = Queue.create ();
    tokens = limits.burst;
    depth_gauge =
      Option.map
        (fun m ->
          Registry.gauge m ~labels:[ ("class", cls_name cls) ] "daemon.queue_depth")
        metrics;
  }

let create ?metrics config =
  {
    config;
    churn_lane = make_lane metrics config Churn;
    query_lane = make_lane metrics config Query;
    meas_lane = make_lane metrics config Meas;
    metrics;
  }

let lane t = function
  | Churn -> t.churn_lane
  | Query -> t.query_lane
  | Meas -> t.meas_lane

let depth t cls = Queue.length (lane t cls).q
let backlog t = depth t Churn + depth t Query + depth t Meas

let bump t name labels =
  match t.metrics with
  | Some m -> Registry.Counter.incr (Registry.counter m ~labels name)
  | None -> ()

let set_depth l =
  match l.depth_gauge with
  | Some g -> Registry.Gauge.set g (Queue.length l.q)
  | None -> ()

(* churn backlog above half capacity is the storm signal: gossip yields
   to the classes that keep answers correct *)
let under_pressure t = depth t Churn > t.config.churn.cap / 2

let offer t cls item =
  let l = lane t cls in
  let verdict =
    if cls = Meas && under_pressure t then Error Pressure
    else if Queue.length l.q >= l.limits.cap then Error Queue_full
    else if l.tokens <= 0 then Error Rate_limited
    else Ok ()
  in
  (match verdict with
  | Ok () ->
      l.tokens <- l.tokens - 1;
      Queue.add item l.q;
      set_depth l;
      bump t "daemon.admitted" [ ("class", cls_name cls) ]
  | Error reason ->
      bump t "daemon.shed"
        [ ("class", cls_name cls); ("reason", shed_reason_name reason) ]);
  verdict

let take t cls =
  let l = lane t cls in
  match Queue.take_opt l.q with
  | None -> None
  | Some item ->
      set_depth l;
      Some item

let refill t =
  List.iter
    (fun cls ->
      let l = lane t cls in
      l.tokens <- min l.limits.burst (l.tokens + l.limits.rate))
    all_classes
