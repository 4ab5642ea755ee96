(* Seeded request scripts for the three benchmark workloads.

   The generator is closed-loop: the lines of tick [t] are produced only
   after tick [t-1] has returned, so churn picks are judged from the
   membership the ACKs have confirmed so far.  Every JOIN names a
   non-member and every LEAVE a member, so each event applies; the
   reactor only ever sees the rendered lines.

   The client traffic (QUERY and MEAS lines) is drawn from --seed.  The
   membership trace is part of the fixed system, like the dataset: which
   host leaves decides how long the aggregation takes to reconverge, and
   with at most a hundred events per run that choice would otherwise
   dominate the run-to-run spread. *)

module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset

(* the system under test is fixed, like the paper's fixed PlanetLab
   matrices: dataset, ensemble and reactor draw from this seed, and
   --seed varies only the client traffic *)
let system_seed = 1

type kind = Query_live | Reconverge | Churn_storm

type spec = {
  name : string;
  kind : kind;
  n : int;                      (* dataset hosts *)
  members : int;                (* initial membership, and the churn target *)
  snapshot_every : int option;  (* reactor snapshot cadence (ticks) *)
  setups : int;                 (* cold builds timed for setup_s *)
  digest_ticks : int;           (* transcript prefix every run completes and digests *)
}

let specs =
  [
    (* QUERY only at the work budget: per-request cost of Wire, Admission,
       Reactor and Algorithm-4 routing; no rounds, no index deltas *)
    {
      name = "query_live";
      kind = Query_live;
      n = 190;
      members = 190;
      snapshot_every = None;
      setups = 5;
      digest_ticks = 2000;
    };
    (* E17's class mix at 1x, churn on a fixed cadence, periodic
       snapshots: Protocol.run_round reconvergence dominates *)
    {
      name = "reconverge";
      kind = Reconverge;
      n = 80;
      members = 72;
      snapshot_every = Some 25;
      setups = 5;
      digest_ticks = 48;
    };
    (* a JOIN and a LEAVE every tick plus queries: after the watchdog
       fires, Dynamic.apply_deferred (ensemble + O(n^2) index delta)
       beside index-served reads *)
    {
      name = "churn_storm";
      kind = Churn_storm;
      n = 384;
      members = 288;
      snapshot_every = None;
      setups = 3;
      digest_ticks = 60;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

let initial_members spec = List.init spec.members Fun.id

type op =
  | Query of { k : int; b : float }
  | Join of int
  | Leave of int
  | Meas

type req = { id : string; line : string; op : op }

type t = {
  spec : spec;
  rng : Rng.t;        (* client traffic, from --seed *)
  churn_rng : Rng.t;  (* membership trace, from [system_seed] *)
  member : bool array;  (* intended membership: confirmed plus this tick's picks *)
  mutable count : int;
  b_lo : float;
  b_hi : float;
  mutable seq : int;
  mutable ticks : int;
}

let create spec ~seed ds =
  (* k up to 12 and b over the 5th-95th percentile of the dataset's
     bandwidths: the top of the range is infeasible for large k *)
  let b_lo, b_hi = Dataset.percentile_range ds ~lo:5. ~hi:95. in
  {
    spec;
    rng = Rng.create ((seed * 7919) + 17);
    churn_rng = Rng.create ((system_seed * 7919) + 23);
    member = Array.init spec.n (fun h -> h < spec.members);
    count = spec.members;
    b_lo;
    b_hi;
    seq = 0;
    ticks = 0;
  }

let fresh_id g =
  g.seq <- g.seq + 1;
  "r" ^ string_of_int g.seq

(* rejection sampling: members and non-members are each at least an
   eighth of the hosts in every churning workload *)
let rec pick g want =
  let h = Rng.int g.churn_rng g.spec.n in
  if g.member.(h) = want then h else pick g want

let query g =
  let id = fresh_id g in
  let k = 2 + Rng.int g.rng 11 in
  let bs = Printf.sprintf "%.3f" (g.b_lo +. Rng.float g.rng (g.b_hi -. g.b_lo)) in
  {
    id;
    line = Printf.sprintf "QUERY %s k=%d b=%s" id k bs;
    op = Query { k; b = float_of_string bs };
  }

let join g =
  let id = fresh_id g in
  let h = pick g false in
  g.member.(h) <- true;
  g.count <- g.count + 1;
  { id; line = Printf.sprintf "JOIN %s host=%d" id h; op = Join h }

let leave g =
  let id = fresh_id g in
  let h = pick g true in
  g.member.(h) <- false;
  g.count <- g.count - 1;
  { id; line = Printf.sprintf "LEAVE %s host=%d" id h; op = Leave h }

let meas g =
  let id = fresh_id g in
  let n = g.spec.n in
  let src = Rng.int g.rng n in
  let dst = (src + 1 + Rng.int g.rng (n - 1)) mod n in
  {
    id;
    line =
      Printf.sprintf "MEAS %s src=%d dst=%d bw=%.3f" id src dst
        (1. +. Rng.float g.rng 80.);
    op = Meas;
  }

(* reconverge's churn cadence.  E17 draws churn per line (8%), so how
   often the aggregation restarts, and whether the watchdog degrades the
   reactor for the rest of the run, varies from seed to seed.  With one
   event every [churn_every] ticks from the fixed membership trace, and
   queries that never touch protocol state, every seed runs the same
   round schedule: a refresh, about a dozen rounds over a few ticks,
   then converged ticks served live *)
let churn_every = 16

let tick g =
  let t = g.ticks in
  g.ticks <- t + 1;
  match g.spec.kind with
  | Query_live -> List.init 8 (fun _ -> query g)
  | Reconverge ->
      (* 8 lines: 2 MEAS (25%), the rest QUERY, one of them replaced
         every [churn_every] ticks by a JOIN or LEAVE steered towards
         the target membership *)
      let churn =
        if t mod churn_every = 0 then
          [ (if g.count >= g.spec.members then leave g else join g) ]
        else []
      in
      let m1 = meas g in
      let m2 = meas g in
      churn @ (m1 :: m2 :: List.init (6 - List.length churn) (fun _ -> query g))
  | Churn_storm ->
      let l = leave g in
      let j = join g in
      l :: j :: List.init 4 (fun _ -> query g)
