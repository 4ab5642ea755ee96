(* Round-clocked structured tracing.

   Events carry the simulation round, never wall time: the JSONL
   rendering of a run is a pure function of its seeds, which is what
   lets tests diff whole traces byte-for-byte.

   Schema v2: message events additionally carry a per-run monotone
   message id, a payload kind, an estimated wire size in bytes, and a
   Lamport stamp, so the happens-before DAG of a run is reconstructible
   from its trace alone (see Causal). *)

type drop_cause = Fault_loss | Partition | Dead_dst | Purge

type msg_kind =
  | Heartbeat
  | Aggregate
  | Invalidate
  | Ack
  | Retransmit
  | Query
  | Repair

let kind_to_string = function
  | Heartbeat -> "heartbeat"
  | Aggregate -> "aggregate"
  | Invalidate -> "invalidate"
  | Ack -> "ack"
  | Retransmit -> "retransmit"
  | Query -> "query"
  | Repair -> "repair"

let kind_of_string = function
  | "heartbeat" -> Some Heartbeat
  | "aggregate" -> Some Aggregate
  | "invalidate" -> Some Invalidate
  | "ack" -> Some Ack
  | "retransmit" -> Some Retransmit
  | "query" -> Some Query
  | "repair" -> Some Repair
  | _ -> None

let all_kinds = [ Heartbeat; Aggregate; Invalidate; Ack; Retransmit; Query; Repair ]

type event =
  | Round_start of { round : int }
  | Send of {
      round : int;
      msg : int;
      kind : msg_kind;
      bytes : int;
      lc : int;
      src : int;
      dst : int;
    }
  | Deliver of {
      round : int;
      msg : int;
      kind : msg_kind;
      bytes : int;
      lc : int;
      src : int;
      dst : int;
    }
  | Drop of {
      round : int;
      msg : int;
      kind : msg_kind;
      bytes : int;
      src : int;
      dst : int;
      cause : drop_cause;
    }
  | Retransmit of { round : int; src : int; dst : int }
  | Crash of { round : int; node : int }
  | Restart of { round : int; node : int }
  | Query_hop of { round : int; msg : int; bytes : int; src : int; dst : int }
  | Suspect of { round : int; by : int; node : int }
  | Confirm_dead of { round : int; by : int; node : int }
  | Regraft of { round : int; node : int; new_parent : int }
  | Quiesce of { round : int }
  | Snapshot_write of { round : int; bytes : int }
  | Restore of { round : int; warm : bool }
  | Restore_rejected of { round : int; reason : string }
  | Daemon_admit of { round : int; cls : string; conn : int }
  | Daemon_shed of { round : int; cls : string; reason : string }
  | Daemon_timeout of { round : int; waited : int; deadline : int }
  | Daemon_degrade of { round : int; entered : bool; staleness : int }
  | Daemon_retry of { round : int; cls : string; attempt : int; due : int }
  | Daemon_watchdog of { round : int; stalled : int }

type t = {
  capacity : int option;
  q : event Queue.t;
  mutable emitted : int;
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Trace.create: capacity < 1"
  | Some _ | None -> ());
  { capacity; q = Queue.create (); emitted = 0 }

let emit t ev =
  t.emitted <- t.emitted + 1;
  Queue.add ev t.q;
  match t.capacity with
  | Some c when Queue.length t.q > c -> ignore (Queue.pop t.q)
  | Some _ | None -> ()

let events t = List.of_seq (Queue.to_seq t.q)
let emitted t = t.emitted

let cause_to_string = function
  | Fault_loss -> "fault_loss"
  | Partition -> "partition"
  | Dead_dst -> "dead_dst"
  | Purge -> "purge"

let cause_of_string = function
  | "fault_loss" -> Some Fault_loss
  | "partition" -> Some Partition
  | "dead_dst" -> Some Dead_dst
  | "purge" -> Some Purge
  | _ -> None

(* The one event table: each constructor's wire name and its fields in
   rendering order.  [event_to_json] walks it; [event_of_json] reads the
   same fields back by name. *)
let fields : event -> string * (string * Bwc_json.t) list =
  let open Bwc_json in
  function
  | Round_start { round } -> ("round_start", [ ("round", Int round) ])
  | Send { round; msg; kind; bytes; lc; src; dst } ->
      ( "send",
        [ ("round", Int round); ("msg", Int msg); ("kind", Str (kind_to_string kind));
          ("bytes", Int bytes); ("lc", Int lc); ("src", Int src); ("dst", Int dst) ] )
  | Deliver { round; msg; kind; bytes; lc; src; dst } ->
      ( "deliver",
        [ ("round", Int round); ("msg", Int msg); ("kind", Str (kind_to_string kind));
          ("bytes", Int bytes); ("lc", Int lc); ("src", Int src); ("dst", Int dst) ] )
  | Drop { round; msg; kind; bytes; src; dst; cause } ->
      ( "drop",
        [ ("round", Int round); ("msg", Int msg); ("kind", Str (kind_to_string kind));
          ("bytes", Int bytes); ("src", Int src); ("dst", Int dst);
          ("cause", Str (cause_to_string cause)) ] )
  | Retransmit { round; src; dst } ->
      ("retransmit", [ ("round", Int round); ("src", Int src); ("dst", Int dst) ])
  | Crash { round; node } -> ("crash", [ ("round", Int round); ("node", Int node) ])
  | Restart { round; node } -> ("restart", [ ("round", Int round); ("node", Int node) ])
  | Query_hop { round; msg; bytes; src; dst } ->
      ( "query_hop",
        [ ("round", Int round); ("msg", Int msg); ("bytes", Int bytes); ("src", Int src);
          ("dst", Int dst) ] )
  | Suspect { round; by; node } ->
      ("suspect", [ ("round", Int round); ("by", Int by); ("node", Int node) ])
  | Confirm_dead { round; by; node } ->
      ("confirm_dead", [ ("round", Int round); ("by", Int by); ("node", Int node) ])
  | Regraft { round; node; new_parent } ->
      ( "regraft",
        [ ("round", Int round); ("node", Int node); ("new_parent", Int new_parent) ] )
  | Quiesce { round } -> ("quiesce", [ ("round", Int round) ])
  | Snapshot_write { round; bytes } ->
      ("snapshot_write", [ ("round", Int round); ("bytes", Int bytes) ])
  | Restore { round; warm } -> ("restore", [ ("round", Int round); ("warm", Bool warm) ])
  | Restore_rejected { round; reason } ->
      ("restore_rejected", [ ("round", Int round); ("reason", Str reason) ])
  | Daemon_admit { round; cls; conn } ->
      ("daemon_admit", [ ("round", Int round); ("cls", Str cls); ("conn", Int conn) ])
  | Daemon_shed { round; cls; reason } ->
      ("daemon_shed", [ ("round", Int round); ("cls", Str cls); ("reason", Str reason) ])
  | Daemon_timeout { round; waited; deadline } ->
      ( "daemon_timeout",
        [ ("round", Int round); ("waited", Int waited); ("deadline", Int deadline) ] )
  | Daemon_degrade { round; entered; staleness } ->
      ( "daemon_degrade",
        [ ("round", Int round); ("entered", Bool entered); ("staleness", Int staleness) ] )
  | Daemon_retry { round; cls; attempt; due } ->
      ( "daemon_retry",
        [ ("round", Int round); ("cls", Str cls); ("attempt", Int attempt);
          ("due", Int due) ] )
  | Daemon_watchdog { round; stalled } ->
      ("daemon_watchdog", [ ("round", Int round); ("stalled", Int stalled) ])

let event_to_json ev =
  let name, fields = fields ev in
  Bwc_json.to_string (Bwc_json.Obj (("ev", Bwc_json.Str name) :: fields))

let to_jsonl t =
  let buf = Buffer.create 4096 in
  Queue.iter
    (fun ev ->
      Buffer.add_string buf (event_to_json ev);
      Buffer.add_char buf '\n')
    t.q;
  Buffer.contents buf

exception Missing

let event_of_json line =
  match Bwc_json.of_string line with
  | Error _ -> None
  | Ok obj -> (
      let get k = Option.value ~default:Bwc_json.Null (Bwc_json.member k obj) in
      let int k = match get k with Bwc_json.Int i -> i | _ -> raise Missing in
      let str k = match get k with Bwc_json.Str s -> s | _ -> raise Missing in
      let bool k = match get k with Bwc_json.Bool b -> b | _ -> raise Missing in
      let parsed of_string k =
        match of_string (str k) with Some v -> v | None -> raise Missing
      in
      let kind k = parsed kind_of_string k and cause k = parsed cause_of_string k in
      try
        match str "ev" with
        | "round_start" -> Some (Round_start { round = int "round" })
        | "send" ->
            Some
              (Send
                 { round = int "round"; msg = int "msg"; kind = kind "kind";
                   bytes = int "bytes"; lc = int "lc"; src = int "src"; dst = int "dst" })
        | "deliver" ->
            Some
              (Deliver
                 { round = int "round"; msg = int "msg"; kind = kind "kind";
                   bytes = int "bytes"; lc = int "lc"; src = int "src"; dst = int "dst" })
        | "drop" ->
            Some
              (Drop
                 { round = int "round"; msg = int "msg"; kind = kind "kind";
                   bytes = int "bytes"; src = int "src"; dst = int "dst";
                   cause = cause "cause" })
        | "retransmit" ->
            Some (Retransmit { round = int "round"; src = int "src"; dst = int "dst" })
        | "crash" -> Some (Crash { round = int "round"; node = int "node" })
        | "restart" -> Some (Restart { round = int "round"; node = int "node" })
        | "query_hop" ->
            Some
              (Query_hop
                 { round = int "round"; msg = int "msg"; bytes = int "bytes";
                   src = int "src"; dst = int "dst" })
        | "suspect" ->
            Some (Suspect { round = int "round"; by = int "by"; node = int "node" })
        | "confirm_dead" ->
            Some (Confirm_dead { round = int "round"; by = int "by"; node = int "node" })
        | "regraft" ->
            Some
              (Regraft
                 { round = int "round"; node = int "node"; new_parent = int "new_parent" })
        | "quiesce" -> Some (Quiesce { round = int "round" })
        | "snapshot_write" ->
            Some (Snapshot_write { round = int "round"; bytes = int "bytes" })
        | "restore" -> Some (Restore { round = int "round"; warm = bool "warm" })
        | "restore_rejected" ->
            Some (Restore_rejected { round = int "round"; reason = str "reason" })
        | "daemon_admit" ->
            Some (Daemon_admit { round = int "round"; cls = str "cls"; conn = int "conn" })
        | "daemon_shed" ->
            Some
              (Daemon_shed { round = int "round"; cls = str "cls"; reason = str "reason" })
        | "daemon_timeout" ->
            Some
              (Daemon_timeout
                 { round = int "round"; waited = int "waited"; deadline = int "deadline" })
        | "daemon_degrade" ->
            Some
              (Daemon_degrade
                 { round = int "round"; entered = bool "entered";
                   staleness = int "staleness" })
        | "daemon_retry" ->
            Some
              (Daemon_retry
                 { round = int "round"; cls = str "cls"; attempt = int "attempt";
                   due = int "due" })
        | "daemon_watchdog" ->
            Some
              (Daemon_watchdog { round = int "round"; stalled = int "stalled" })
        | _ -> None
      with Missing -> None)

let of_jsonl s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go (lineno + 1) acc rest
    | line :: rest -> (
        match event_of_json line with
        | Some ev -> go (lineno + 1) (ev :: acc) rest
        | None -> Error (Printf.sprintf "trace: unparseable event at line %d" lineno))
  in
  go 1 [] lines
