(* E17: bwclusterd under overload.

   An offered-load sweep over the deterministic reactor: each arm
   scripts [load x work_budget] requests per tick (queries, measurement
   gossip, a trickle of churn) through a fresh daemon via the in-memory
   Script transport, runs the same script twice, and accounts for every
   request.

   The claims under test:
   - goodput (answers per tick) rises with load, then plateaus at
     service capacity instead of collapsing — overload is shed with
     typed queue_full/rate_limit refusals at the door, not absorbed
     into timeouts;
   - the accounting identity holds at every load: every well-formed
     request resolves to exactly one typed response (answer, ack,
     shed, timeout, or rejection) — never a silent drop;
   - every degraded answer carries an explicit staleness bound, and the
     arm reports the worst bound it served;
   - the same seed replays byte-identically (transcript and trace). *)

module Rng = Bwc_stats.Rng
module Trace = Bwc_obs.Trace
module Dynamic = Bwc_core.Dynamic
module Reactor = Bwc_daemon.Reactor
module Script = Bwc_daemon.Script
module Wire = Bwc_daemon.Wire

type row = {
  load : float;            (* offered load as a multiple of work_budget *)
  offered : int;           (* well-formed requests scripted *)
  answered_live : int;     (* answers served from the live path *)
  answered_degraded : int; (* answers served from the index while stale *)
  acked : int;             (* churn ingests acknowledged *)
  shed : int;              (* typed admission refusals *)
  timeouts : int;          (* typed deadline expiries *)
  rejected : int;          (* typed validation/ingest rejections *)
  goodput : float;         (* answers + acks per scripted tick *)
  shed_rate : float;       (* shed / offered *)
  max_staleness : int;     (* worst staleness bound any answer carried *)
  drain_ticks : int;       (* extra ticks past the horizon to drain *)
  deterministic : bool;    (* two same-seed runs byte-identical *)
  accounted : bool;        (* 1:1 request/response identity held *)
}

type t = {
  dataset : string;
  n : int;
  ticks : int;
  budget : int;           (* reactor work_budget: items per tick *)
  seed : int;
  plateau : float;        (* max goodput over the sweep *)
  rows : row list;
}

(* request mix per scripted line: mostly queries, a quarter gossip, a
   trickle of churn so the daemon keeps re-dirtying under load *)
let scripted_line rng ~n ~id =
  let pick = Rng.int rng 100 in
  if pick < 66 then
    Printf.sprintf "QUERY %s k=%d b=%f" id (2 + Rng.int rng 3)
      (1. +. Rng.float rng 40.)
  else if pick < 92 then
    Printf.sprintf "MEAS %s src=%d dst=%d bw=%f" id (Rng.int rng n)
      (Rng.int rng n)
      (1. +. Rng.float rng 80.)
  else if pick < 96 then Printf.sprintf "JOIN %s host=%d" id (Rng.int rng n)
  else Printf.sprintf "LEAVE %s host=%d" id (Rng.int rng n)

(* the offered schedule: a fractional accumulator turns [load x budget]
   requests/tick into an integer count per tick without drift *)
let script ~rng ~n ~ticks ~per_tick =
  let acc = ref 0. in
  List.concat
    (List.init ticks (fun at ->
         acc := !acc +. per_tick;
         let k = int_of_float !acc in
         acc := !acc -. float_of_int k;
         List.init k (fun i ->
             Script.line ~at ~conn:(i mod 4)
               (scripted_line rng ~n ~id:(Printf.sprintf "r%d_%d" at i)))))

let run_once ~seed ~ds entries =
  let trace = Trace.create () in
  let dyn = Dynamic.create ~seed ds in
  let reactor = Reactor.create ~trace Reactor.default_config dyn in
  let events = Script.run reactor entries in
  (events, Script.transcript events, Trace.to_jsonl trace)

let arm ~seed ~ds ~n ~ticks ~budget load =
  let entries =
    script
      ~rng:(Rng.create (seed + int_of_float (load *. 1000.)))
      ~n ~ticks
      ~per_tick:(load *. float_of_int budget)
  in
  let events, t1, tr1 = run_once ~seed ~ds entries in
  let _, t2, tr2 = run_once ~seed ~ds entries in
  let deterministic = String.equal t1 t2 && String.equal tr1 tr2 in
  let answered_live = ref 0
  and answered_degraded = ref 0
  and acked = ref 0
  and shed = ref 0
  and timeouts = ref 0
  and rejected = ref 0
  and max_staleness = ref 0
  and last_tick = ref 0 in
  let counts = Hashtbl.create 1024 in
  let count id =
    Hashtbl.replace counts id
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts id))
  in
  List.iter
    (fun (e : Script.event) ->
      last_tick := max !last_tick e.Script.tick;
      match e.Script.response with
      | Wire.Answer { id; degraded; staleness; _ } ->
          if degraded then incr answered_degraded else incr answered_live;
          max_staleness := max !max_staleness staleness;
          count id
      | Wire.Acked { id; _ } ->
          incr acked;
          count id
      | Wire.Shed { id; _ } ->
          incr shed;
          count id
      | Wire.Timeout { id; _ } ->
          incr timeouts;
          count id
      | Wire.Rejected { id; _ } ->
          incr rejected;
          count id
      | _ -> ())
    events;
  let accounted =
    Hashtbl.length counts = List.length entries
    && List.for_all
         (fun (e : Script.entry) ->
           match String.split_on_char ' ' e.Script.line with
           | _ :: id :: _ -> Hashtbl.find_opt counts id = Some 1
           | _ -> false)
         entries
  in
  let offered = List.length entries in
  let served = !answered_live + !answered_degraded + !acked in
  {
    load;
    offered;
    answered_live = !answered_live;
    answered_degraded = !answered_degraded;
    acked = !acked;
    shed = !shed;
    timeouts = !timeouts;
    rejected = !rejected;
    goodput = float_of_int served /. float_of_int ticks;
    shed_rate =
      (if offered = 0 then 0. else float_of_int !shed /. float_of_int offered);
    max_staleness = !max_staleness;
    drain_ticks = max 0 (!last_tick - (ticks - 1));
    deterministic;
    accounted;
  }

let run ?(ticks = 200) ~seed ds =
  let n = Bwc_dataset.Dataset.size ds in
  let budget = Reactor.default_config.Reactor.work_budget in
  let rows = List.map (arm ~seed ~ds ~n ~ticks ~budget) [ 0.5; 1.0; 2.0; 4.0 ] in
  let plateau = List.fold_left (fun m r -> Float.max m r.goodput) 0. rows in
  { dataset = ds.Bwc_dataset.Dataset.name; n; ticks; budget; seed; plateau; rows }

(* how far below the plateau the heaviest arm's goodput may fall *)
let tolerance = 0.10

let gate (out : t) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun r ->
      if not r.accounted then
        fail "load %.1fx: request/response accounting identity broken" r.load;
      if not r.deterministic then
        fail "load %.1fx: same-seed replay was not byte-identical" r.load)
    out.rows;
  (match List.rev out.rows with
  | heaviest :: _ when heaviest.load >= 2.0 ->
      if heaviest.goodput < (1. -. tolerance) *. out.plateau then
        fail
          "goodput %.2f/tick at %.1fx is below %.0f%% of the %.2f/tick \
           plateau (overload collapse)"
          heaviest.goodput heaviest.load
          ((1. -. tolerance) *. 100.)
          out.plateau
  | _ -> ());
  List.rev !failures

let columns =
  Report.
    [
      col ~csv:(fun r -> Printf.sprintf "%.2f" r.load) "load" "load"
        (fun r -> Printf.sprintf "%.1fx" r.load);
      col "offered" "offered" (fun r -> i r.offered);
      col "live" "answered_live" (fun r -> i r.answered_live);
      col "degraded" "answered_degraded" (fun r -> i r.answered_degraded);
      col "acked" "acked" (fun r -> i r.acked);
      col "shed" "shed" (fun r -> i r.shed);
      col "timeout" "timeouts" (fun r -> i r.timeouts);
      col "rejected" "rejected" (fun r -> i r.rejected);
      col ~csv:(fun r -> Printf.sprintf "%.4f" r.goodput) "goodput/tick" "goodput"
        (fun r -> f r.goodput);
      col ~csv:(fun r -> Printf.sprintf "%.4f" r.shed_rate) "shed rate" "shed_rate"
        (fun r -> f3 r.shed_rate);
      col "max staleness" "max_staleness" (fun r -> i r.max_staleness);
      col "drain" "drain_ticks" (fun r -> i r.drain_ticks);
      col "replay" "deterministic" (fun r -> yes_no r.deterministic);
      col "accounted" "accounted" (fun r -> yes_no r.accounted);
    ]

let print (out : t) =
  Report.print
    ~title:
      (Printf.sprintf
         "Overload: offered-load sweep through bwclusterd's reactor \
          (budget %d items/tick, %d ticks, plateau %.2f/tick) -- %s n=%d"
         out.budget out.ticks out.plateau out.dataset out.n)
    columns out.rows

let save_csv (out : t) = Report.save_csv columns out.rows

let to_json (out : t) =
  let open Bwc_json in
  let row r =
    Obj
      [ ("load", Num (r.load, 2)); ("offered", Int r.offered);
        ("answered_live", Int r.answered_live);
        ("answered_degraded", Int r.answered_degraded);
        ("acked", Int r.acked); ("shed", Int r.shed); ("timeouts", Int r.timeouts);
        ("rejected", Int r.rejected); ("goodput", Num (r.goodput, 4));
        ("shed_rate", Num (r.shed_rate, 4)); ("max_staleness", Int r.max_staleness);
        ("drain_ticks", Int r.drain_ticks); ("deterministic", Bool r.deterministic);
        ("accounted", Bool r.accounted) ]
  in
  to_rows
    (Obj
       [ ("experiment", Str "overload"); ("seed", Int out.seed);
         ("dataset", Str out.dataset); ("n", Int out.n); ("ticks", Int out.ticks);
         ("budget", Int out.budget);
         ("plateau", Num (out.plateau, 4)); ("rows", Arr (List.map row out.rows)) ])
