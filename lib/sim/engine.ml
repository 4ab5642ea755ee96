module Rng = Bwc_stats.Rng
module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace

type drop_cause = Trace.drop_cause = Fault_loss | Partition | Dead_dst | Purge

(* one enqueued copy of a message, carrying the trace identity minted at
   send time so delivery/drop events cite the same id/kind/bytes/stamp *)
type 'msg flight = {
  f_dst : int;
  f_src : int;
  f_msg : 'msg;
  f_id : int;
  f_kind : Trace.msg_kind;
  f_bytes : int;
  f_lc : int;
}

type 'msg t = {
  rng : Rng.t;
  n : int;
  active : bool array;
  faults : Fault.t;
  edge_delay : src:int -> dst:int -> int;
  (* messages in flight: delivery round -> flights, FIFO within a
     round because the table holds reversed lists flipped at delivery *)
  in_flight : (int, 'msg flight list) Hashtbl.t;
  inbox : (int * 'msg) Queue.t array; (* being consumed this round *)
  (* causal stamps: per-node Lamport clocks and the per-run monotone
     message-id counter.  Maintained whether or not a trace sink is
     attached (they never feed back into protocol behaviour, so
     instrumentation still cannot perturb a run). *)
  lamport : int array;
  mutable next_msg_id : int;
  mutable flying : int;
  mutable round : int;
  metrics : Registry.t;
  trace : Trace.t option;
  c_sent : Registry.Counter.t;
  c_delivered : Registry.Counter.t;
  c_drop_fault : Registry.Counter.t;
  c_drop_partition : Registry.Counter.t;
  c_drop_dead : Registry.Counter.t;
  c_drop_purge : Registry.Counter.t;
  c_rounds : Registry.Counter.t;
  g_in_flight : Registry.Gauge.t;
}

let create ?(faults = Fault.none) ?(edge_delay = fun ~src:_ ~dst:_ -> 1) ?metrics
    ?trace ~rng n =
  if n <= 0 then invalid_arg "Engine.create: n <= 0";
  let metrics = match metrics with Some m -> m | None -> Registry.create () in
  let drop cause =
    Registry.counter metrics ~labels:[ ("cause", Trace.cause_to_string cause) ]
      "engine.drops"
  in
  {
    rng;
    n;
    active = Array.make n true;
    faults;
    edge_delay;
    in_flight = Hashtbl.create 64;
    inbox = Array.init n (fun _ -> Queue.create ());
    lamport = Array.make n 0;
    next_msg_id = 0;
    flying = 0;
    round = 0;
    metrics;
    trace;
    c_sent = Registry.counter metrics "engine.msgs_sent";
    c_delivered = Registry.counter metrics "engine.msgs_delivered";
    c_drop_fault = drop Fault_loss;
    c_drop_partition = drop Partition;
    c_drop_dead = drop Dead_dst;
    c_drop_purge = drop Purge;
    c_rounds = Registry.counter metrics "engine.rounds";
    g_in_flight = Registry.gauge metrics "engine.in_flight";
  }

let round t = t.round
let faults t = t.faults
let metrics t = t.metrics

let restore_round t r =
  if r < 0 then invalid_arg "Engine.restore_round: negative round";
  t.round <- r

let rng_state t = Rng.state t.rng

let emit t ev = match t.trace with Some tr -> Trace.emit tr ev | None -> ()

let drop_counter t = function
  | Fault_loss -> t.c_drop_fault
  | Partition -> t.c_drop_partition
  | Dead_dst -> t.c_drop_dead
  | Purge -> t.c_drop_purge

let record_drop t ~msg ~kind ~bytes ~src ~dst cause =
  Registry.Counter.incr (drop_counter t cause);
  emit t (Trace.Drop { round = t.round; msg; kind; bytes; src; dst; cause })

let drop_flight t f cause =
  record_drop t ~msg:f.f_id ~kind:f.f_kind ~bytes:f.f_bytes ~src:f.f_src ~dst:f.f_dst
    cause

let check t i = if i < 0 || i >= t.n then invalid_arg "Engine: node id out of range"

let fresh_msg_id t =
  let id = t.next_msg_id in
  t.next_msg_id <- id + 1;
  id

let enqueue t ~due entry =
  let waiting = Option.value ~default:[] (Hashtbl.find_opt t.in_flight due) in
  Hashtbl.replace t.in_flight due (entry :: waiting);
  t.flying <- t.flying + 1

let send t ~src ~dst ~kind ~bytes msg =
  check t src;
  check t dst;
  if bytes < 0 then invalid_arg "Engine.send: negative bytes";
  Registry.Counter.incr t.c_sent;
  t.lamport.(src) <- t.lamport.(src) + 1;
  let lc = t.lamport.(src) in
  let id = fresh_msg_id t in
  emit t (Trace.Send { round = t.round; msg = id; kind; bytes; lc; src; dst });
  (* The sender cannot know whether the destination is up: the message is
     enqueued unconditionally and dropped at delivery time if the
     destination is down by then (run_round's check). *)
  match Fault.on_send t.faults ~round:t.round ~src ~dst with
  | Fault.Blocked `Partition -> record_drop t ~msg:id ~kind ~bytes ~src ~dst Partition
  | Fault.Blocked `Loss -> record_drop t ~msg:id ~kind ~bytes ~src ~dst Fault_loss
  | Fault.Deliver extras ->
      let delay = Stdlib.max 1 (t.edge_delay ~src ~dst) in
      List.iter
        (fun extra ->
          enqueue t
            ~due:(t.round + delay + extra)
            { f_dst = dst; f_src = src; f_msg = msg; f_id = id; f_kind = kind;
              f_bytes = bytes; f_lc = lc })
        extras

let set_active t i b =
  check t i;
  t.active.(i) <- b;
  if not b then begin
    (* drop queued and in-flight traffic to a departed node.
       Order-independent: each bucket is partitioned in isolation and the
       counter updates are commutative sums; the trace stays deterministic
       because only messages towards the single node [i] are purged, and
       they are recorded in bucket-list order within each round bucket
       visited. *)
    let purged = ref [] in
    (* bwclint: allow no-unordered-hashtbl-iter -- each round bucket is partitioned in isolation; counter updates are commutative sums *)
    Hashtbl.filter_map_inplace
      (fun due waiting ->
        let keep, drop = List.partition (fun f -> f.f_dst <> i) waiting in
        t.flying <- t.flying - List.length drop;
        List.iter (fun f -> purged := (due, f) :: !purged) drop;
        if keep = [] then None else Some keep)
      t.in_flight;
    List.iter
      (fun (_, f) -> drop_flight t f Purge)
      (List.sort
         (fun (d1, f1) (d2, f2) ->
           compare (d1, f1.f_dst, f1.f_src, f1.f_id) (d2, f2.f_dst, f2.f_src, f2.f_id))
         !purged);
    Queue.clear t.inbox.(i)
  end

let is_active t i =
  check t i;
  t.active.(i)

let clear_in_flight t =
  (* purge everything, oldest delivery round first so the trace is
     deterministic *)
  Bwc_stats.Tbl.iter_sorted
    (fun _ waiting ->
      List.iter (fun f -> drop_flight t f Purge) (List.rev waiting))
    t.in_flight;
  t.flying <- 0;
  Hashtbl.reset t.in_flight;
  Array.iter Queue.clear t.inbox

let run_round t ~step =
  (* Advance the clock, then deliver everything due at the new round;
     sends during the round are stamped with the new time, so a 1-round
     delay reproduces the classic "visible next round" model. *)
  t.round <- t.round + 1;
  Registry.Counter.incr t.c_rounds;
  emit t (Trace.Round_start { round = t.round });
  (* scripted crash/restart windows fire at the round boundary, before
     delivery: a node crashing this round loses its in-flight traffic, a
     node restarting this round receives traffic due now *)
  List.iter
    (fun (node, up) ->
      if node >= 0 && node < t.n then begin
        emit t
          (if up then Trace.Restart { round = t.round; node }
           else Trace.Crash { round = t.round; node });
        set_active t node up
      end)
    (Fault.crashes_at t.faults t.round);
  let delivered = ref 0 in
  (match Hashtbl.find_opt t.in_flight t.round with
  | Some waiting ->
      Hashtbl.remove t.in_flight t.round;
      List.iter
        (fun f ->
          t.flying <- t.flying - 1;
          if t.active.(f.f_dst) then begin
            Queue.add (f.f_src, f.f_msg) t.inbox.(f.f_dst);
            Registry.Counter.incr t.c_delivered;
            (* receive-side Lamport merge: the receiver's clock jumps past
               the stamp carried by the message *)
            t.lamport.(f.f_dst) <- Stdlib.max t.lamport.(f.f_dst) f.f_lc + 1;
            emit t
              (Trace.Deliver
                 { round = t.round; msg = f.f_id; kind = f.f_kind; bytes = f.f_bytes;
                   lc = t.lamport.(f.f_dst); src = f.f_src; dst = f.f_dst });
            incr delivered
          end
          else drop_flight t f Dead_dst)
        (List.rev waiting)
  | None -> ());
  let order = Rng.permutation t.rng t.n in
  let changed = ref false in
  Array.iter
    (fun i ->
      if t.active.(i) then begin
        let msgs = List.of_seq (Queue.to_seq t.inbox.(i)) in
        Queue.clear t.inbox.(i);
        if step i msgs then changed := true
      end)
    order;
  Registry.Gauge.set t.g_in_flight t.flying;
  !changed || !delivered > 0 || t.flying > 0

let messages_sent t = Registry.Counter.value t.c_sent
