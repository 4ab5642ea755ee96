(* The closed loop: one process, one thread, no sockets.

   Each tick's lines go through [Reactor.handle_line], then [Reactor.tick]
   runs, then the responses are rendered and accounted for, then a due
   snapshot is written through [Lifecycle.snapshot] — the order
   bwclusterd uses.  The next tick's lines are generated only after all
   of that returned.  A request's latency runs from its [handle_line] to
   the end of the [tick] that emitted its response. *)

module Dataset = Bwc_dataset.Dataset
module Dynamic = Bwc_core.Dynamic
module Find_cluster = Bwc_core.Find_cluster
module Reactor = Bwc_daemon.Reactor
module Wire = Bwc_daemon.Wire
module Lifecycle = Bwc_daemon.Lifecycle

let now = Unix.gettimeofday

(* the traced run's observation points; the untraced run passes none *)
type hooks = {
  set_measuring : bool -> unit;
  on_line : Load.req -> handle_s:float -> unit;
  before_tick : unit -> unit;
  on_tick :
    tick_s:float -> lookup:(string -> Load.op option) -> Reactor.output list -> unit;
  on_snapshot : lifecycle_s:float -> Dynamic.t -> unit;
}

type pending = { req : Load.req; t0 : float }

type t = {
  spec : Load.spec;
  reactor : Reactor.t;
  gen : Load.t;
  hooks : hooks option;
  snap_path : string;
  pending : (string, pending) Hashtbl.t;
  confirmed : bool array;  (* membership as the ACKs have reported it *)
  digest : Buffer.t;       (* transcript of the first [digest_ticks] ticks *)
  mutable tick : int;
  mutable measuring : bool;
  mutable degraded_at : int option;
  q_lat : Sample.t;  (* seconds *)
  i_lat : Sample.t;
  mutable offered : int;   (* whole run, warm-up included *)
  mutable errors : int;
  mutable m_offered : int; (* timed phase only *)
  mutable m_resolved : int;
  mutable m_errors : int;
  mutable m_answers : int;
  mutable m_live : int;
  mutable index_answers : int;
  mutable samples : (int * float * int array * int list option) list;
  mutable failures : string list;
}

let fail st fmt =
  Printf.ksprintf
    (fun m -> if List.length st.failures < 10 then st.failures <- m :: st.failures)
    fmt

let config (spec : Load.spec) =
  {
    Reactor.default_config with
    Reactor.snapshot_every = spec.snapshot_every;
    seed = Load.system_seed;
  }

(* the cold build setup_s times: Dynamic.create plus Reactor.create,
   which forces the exact index *)
let build ?metrics (spec : Load.spec) ds =
  let t0 = now () in
  let dyn =
    Dynamic.create ~seed:Load.system_seed ~initial_members:(Load.initial_members spec) ds
  in
  let r = Reactor.create ?metrics (config spec) dyn in
  (r, now () -. t0)

let create ?hooks ~snap_path (spec : Load.spec) ds ~seed reactor =
  {
    spec;
    reactor;
    gen = Load.create spec ~seed ds;
    hooks;
    snap_path;
    pending = Hashtbl.create 64;
    confirmed = Array.init spec.n (fun h -> h < spec.members);
    digest = Buffer.create 65536;
    tick = 0;
    measuring = false;
    degraded_at = None;
    q_lat = Sample.create ();
    i_lat = Sample.create ();
    offered = 0;
    errors = 0;
    m_offered = 0;
    m_resolved = 0;
    m_errors = 0;
    m_answers = 0;
    m_live = 0;
    index_answers = 0;
    samples = [];
    failures = [];
  }

let members_array confirmed =
  let acc = ref [] in
  for h = Array.length confirmed - 1 downto 0 do
    if confirmed.(h) then acc := h :: !acc
  done;
  Array.of_list !acc

let check_cluster st ~k ~line = function
  | None -> ()
  | Some c ->
      let ok h = h >= 0 && h < Array.length st.confirmed && st.confirmed.(h) in
      if List.length c <> k
         || List.length (List.sort_uniq Int.compare c) <> k
         || not (List.for_all ok c)
      then fail st "answer is not %d distinct current members: %s" k line

let response_id = function
  | Wire.Answer { id; _ }
  | Wire.Acked { id; _ }
  | Wire.Shed { id; _ }
  | Wire.Timeout { id; _ }
  | Wire.Rejected { id; _ } ->
      Some id
  | _ -> None

(* 1:1 accounting and per-answer checks; [cur] names the request an
   id-less synchronous reply (ERR) belongs to *)
let resolve ?cur st ~t_end (o : Reactor.output) =
  let line = Wire.render o.response in
  if st.tick < st.spec.digest_ticks then
    Buffer.add_string st.digest (Printf.sprintf "%d %d %s\n" st.tick o.conn line);
  let id =
    match (response_id o.response, cur) with
    | Some id, _ -> Some id
    | None, Some (r : Load.req) -> Some r.id
    | None, None -> None
  in
  match Option.bind id (Hashtbl.find_opt st.pending) with
  | None -> fail st "response to an unknown or already answered request: %s" line
  | Some p -> (
      Hashtbl.remove st.pending p.req.id;
      let lat = t_end -. p.t0 in
      let served lat_sample =
        if st.measuring then begin
          Sample.add lat_sample lat;
          st.m_resolved <- st.m_resolved + 1
        end
      in
      match (o.response, p.req.op) with
      | Wire.Answer a, Load.Query { k; b } ->
          check_cluster st ~k ~line a.cluster;
          served st.q_lat;
          if st.measuring then begin
            st.m_answers <- st.m_answers + 1;
            if a.served = Wire.Live then st.m_live <- st.m_live + 1
          end;
          if a.served = Wire.Index then begin
            st.index_answers <- st.index_answers + 1;
            if st.index_answers mod 97 = 1 && List.length st.samples < 12 then
              st.samples <- (k, b, members_array st.confirmed, a.cluster) :: st.samples
          end
      | Wire.Acked a, ((Load.Join h | Load.Leave h) as op) ->
          if not a.applied then fail st "churn event did not apply: %s" line;
          st.confirmed.(h) <- (match op with Load.Join _ -> true | _ -> false);
          served st.i_lat
      | Wire.Acked _, Load.Meas -> served st.i_lat
      | (Wire.Shed _ | Wire.Timeout _ | Wire.Rejected _ | Wire.Parse_error _), _ ->
          st.errors <- st.errors + 1;
          if st.measuring then st.m_errors <- st.m_errors + 1
      | _ -> fail st "response does not match its request: %s" line)

let snapshot st =
  let dyn = Reactor.system st.reactor in
  let t0 = now () in
  let r = Lifecycle.snapshot ~keep:2 ~path:st.snap_path dyn in
  let dt = now () -. t0 in
  match r with
  | Ok _ -> Option.iter (fun h -> h.on_snapshot ~lifecycle_s:dt dyn) st.hooks
  | Error e -> fail st "snapshot failed: %s" (Bwc_persist.Codec.error_to_string e)

let run_tick st =
  List.iter
    (fun (r : Load.req) ->
      let t0 = now () in
      let outs = Reactor.handle_line st.reactor ~now:st.tick ~conn:0 r.line in
      let t1 = now () in
      Hashtbl.replace st.pending r.id { req = r; t0 };
      st.offered <- st.offered + 1;
      if st.measuring then st.m_offered <- st.m_offered + 1;
      Option.iter (fun h -> h.on_line r ~handle_s:(t1 -. t0)) st.hooks;
      List.iter (resolve ~cur:r st ~t_end:t1) outs)
    (Load.tick st.gen);
  Option.iter (fun h -> h.before_tick ()) st.hooks;
  let t0 = now () in
  let outs = Reactor.tick st.reactor ~now:st.tick in
  let t_end = now () in
  Option.iter
    (fun h ->
      h.on_tick ~tick_s:(t_end -. t0)
        ~lookup:(fun id ->
          Option.map (fun p -> p.req.op) (Hashtbl.find_opt st.pending id))
        outs)
    st.hooks;
  List.iter (resolve st ~t_end) outs;
  if Reactor.take_snapshot_request st.reactor then snapshot st;
  if st.degraded_at = None && Reactor.mode st.reactor = Reactor.Degraded then
    st.degraded_at <- Some st.tick;
  st.tick <- st.tick + 1

(* churn_storm's first ticks reconverge (refresh plus budgeted rounds)
   until the watchdog degrades the reactor; that transient is excluded *)
let warmed st =
  match st.spec.kind with
  | Load.Query_live -> st.tick >= 100
  | Load.Reconverge -> st.tick >= Load.churn_every
  | Load.Churn_storm -> (
      match st.degraded_at with Some t -> st.tick >= t + 4 | None -> false)

(* warm up, measure for [seconds] (and at least the digested prefix),
   then drain so every admitted request resolves; returns the timed
   phase's wall time *)
let measure st ~seconds =
  while not (warmed st) do
    if st.tick > 500 then failwith "warm-up never ended";
    run_tick st
  done;
  st.measuring <- true;
  Option.iter (fun h -> h.set_measuring true) st.hooks;
  let t0 = now () in
  while now () -. t0 < seconds || st.tick < st.spec.digest_ticks do
    run_tick st
  done;
  let elapsed = now () -. t0 in
  st.measuring <- false;
  Option.iter (fun h -> h.set_measuring false) st.hooks;
  Reactor.drain st.reactor ~now:st.tick;
  let settle_until stop =
    let limit = st.tick + 10_000 in
    while (not (stop ())) && st.tick < limit do
      st.tick <- st.tick + 1;
      List.iter (resolve st ~t_end:(now ()))
        (Reactor.tick st.reactor ~now:st.tick)
    done
  in
  settle_until (fun () -> Reactor.drained st.reactor);
  (* bwclusterd snapshots as soon as it has drained, but an image taken
     while churn still awaits its topology refresh does not restore
     (Protocol.of_dump rejects the membership mismatch); so the draining
     reactor, which keeps stabilizing, reconverges first *)
  settle_until (fun () -> Reactor.staleness st.reactor ~now:(st.tick + 1) = 0);
  if Hashtbl.length st.pending > 0 then
    fail st "%d requests never got a response" (Hashtbl.length st.pending);
  elapsed

(* ----- after the run ----- *)

(* sampled index answers against a one-shot Algorithm 1 over the
   member-restricted space; returns that oracle *)
let check_index_samples st ds =
  let c = Dynamic.c (Reactor.system st.reactor) in
  let space = Bwc_metric.Space.cached (Dataset.metric ~c ds) in
  let one_shot ~k ~b members =
    let l = Bwc_metric.Bandwidth.to_distance ~c b in
    Find_cluster.find (Bwc_metric.Space.restrict space members) ~k ~l
    |> Option.map (List.map (fun i -> members.(i)))
  in
  List.iter
    (fun (k, b, members, cluster) ->
      if one_shot ~k ~b members <> cluster then
        fail st "index answer for k=%d b=%.3f disagrees with a one-shot Find_cluster.find"
          k b)
    st.samples;
  one_shot

let probe_set st =
  let lo, hi = (st.gen.Load.b_lo, st.gen.Load.b_hi) in
  List.concat_map
    (fun k -> List.map (fun f -> (k, lo +. (f *. (hi -. lo)))) [ 0.; 0.3; 0.6; 0.9 ])
    [ 2; 4; 8; 12 ]

let render_cluster = function
  | None -> "none"
  | Some c -> String.concat "," (List.map string_of_int c)

(* index answers always; live routing answers only when the aggregation
   is converged (a stale overlay does not know every member yet) *)
let probe_answers ~live dyn probes =
  List.concat_map
    (fun (k, b) ->
      let idx = render_cluster (Dynamic.query_centralized dyn ~k ~b) in
      if live then [ idx; render_cluster (Dynamic.query dyn ~k ~b).Bwc_core.Query.cluster ]
      else [ idx ])
    probes

(* write an image of the final state, boot it warm again and again for
   [seconds] (at least once) and check every boot answers the probe set
   like the writer; returns the boot times *)
let restore st ds ~seconds =
  let path = st.snap_path ^ ".final" in
  let dyn = Reactor.system st.reactor in
  let live =
    Reactor.staleness st.reactor ~now:st.tick = 0
    && Reactor.mode st.reactor <> Reactor.Degraded
  in
  let t0 = now () in
  (match Lifecycle.snapshot ~keep:1 ~path dyn with
  | Ok _ ->
      Option.iter (fun h -> h.on_snapshot ~lifecycle_s:(now () -. t0) dyn) st.hooks
  | Error e ->
      fail st "final snapshot failed: %s" (Bwc_persist.Codec.error_to_string e));
  let probes = probe_set st in
  let expect = probe_answers ~live dyn probes in
  let one_shot = check_index_samples st ds in
  let members = Array.of_list (List.sort Int.compare (Dynamic.members dyn)) in
  List.iter
    (fun (k, b) ->
      if one_shot ~k ~b members <> Dynamic.query_centralized dyn ~k ~b then
        fail st "probe k=%d b=%.3f: index disagrees with a one-shot Find_cluster.find"
          k b)
    probes;
  let boot () =
    (* each boot starts from a collected heap, not behind the previous
       boot's garbage *)
    Gc.full_major ();
    let t0 = now () in
    let b = Lifecycle.boot ~keep:1 ~path ~cold:(fun () -> dyn) () in
    let dt = now () -. t0 in
    if not b.Lifecycle.warm then
      fail st "warm boot fell back to a cold start: %s"
        (String.concat "; "
           (List.map
              (fun (_, e) -> Bwc_persist.Codec.error_to_string e)
              b.Lifecycle.rejected))
    else if probe_answers ~live b.Lifecycle.system probes <> expect then
      fail st "the warm-booted system answers the probe set differently";
    dt
  in
  let t_end = now () +. seconds in
  let times = ref [ boot () ] in
  while now () < t_end do
    times := boot () :: !times
  done;
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; st.snap_path; Bwc_persist.Snapshot.gen_path st.snap_path 1 ];
  !times

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)
