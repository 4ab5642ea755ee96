(** Structured, round-clocked trace of engine and protocol activity.

    Events are typed and stamped with the {e simulation round} — never
    wall time — so two runs from the same seed and fault plan emit
    byte-identical traces ({!to_jsonl} is the canonical rendering, one
    JSON object per line).  Components emit into a sink resolved at
    construction time; the sink is either unbounded or a bounded ring
    that keeps the newest events.

    Schema v2: {!Send}/{!Deliver}/{!Drop}/{!Query_hop} carry message
    identity (a per-run monotone id), a payload {!msg_kind}, an
    estimated wire size in bytes, and — on send/deliver — the emitting
    node's Lamport clock, making the happens-before DAG of a run
    reconstructible from the trace alone (see {!Causal}). *)

type drop_cause =
  | Fault_loss  (** lost by the fault plan at send time *)
  | Partition   (** blocked by a scripted partition at send time *)
  | Dead_dst    (** destination inactive at delivery time *)
  | Purge       (** in-flight traffic purged by a crash/leave *)

type msg_kind =
  | Heartbeat   (** failure-detector lease renewal *)
  | Aggregate   (** steady-state Algorithm 2/3 update *)
  | Invalidate  (** update repropagated after a dead neighbor's state
                    was deleted *)
  | Ack         (** per-link cumulative acknowledgement *)
  | Retransmit  (** timeout-driven re-send of an unacked update *)
  | Query       (** Algorithm 4 routing hop *)
  | Repair      (** update triggered by overlay self-healing
                    (relink/regraft or root-path dirtying) *)

val kind_to_string : msg_kind -> string
(** Lowercase wire name, e.g. ["heartbeat"]. *)

val all_kinds : msg_kind list
(** Every kind once, in a fixed canonical order (the order reports
    enumerate attribution rows in). *)

type event =
  | Round_start of { round : int }
  | Send of {
      round : int;
      msg : int;    (** per-run monotone message id *)
      kind : msg_kind;
      bytes : int;  (** estimated wire size *)
      lc : int;     (** sender's Lamport clock after the send bump *)
      src : int;
      dst : int;
    }
  | Deliver of {
      round : int;
      msg : int;
      kind : msg_kind;
      bytes : int;
      lc : int;     (** receiver's Lamport clock after the merge bump *)
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
      (** retransmission decision marker; the re-sent update follows as
          a [Send] with [kind = Retransmit] *)
  | Crash of { round : int; node : int }
  | Restart of { round : int; node : int }
  | Query_hop of { round : int; msg : int; bytes : int; src : int; dst : int }
      (** one synchronous Algorithm 4 routing hop; ids are drawn from
          the same per-run counter as engine sends *)
  | Suspect of { round : int; by : int; node : int }
      (** watcher [by]'s failure detector started suspecting [node] *)
  | Confirm_dead of { round : int; by : int; node : int }
      (** watcher [by] confirmed [node] dead; self-healing repair follows *)
  | Regraft of { round : int; node : int; new_parent : int }
      (** overlay repair re-attached orphaned [node] under [new_parent] *)
  | Quiesce of { round : int }
  | Snapshot_write of { round : int; bytes : int }
      (** a snapshot of the whole system was encoded ([bytes] long) *)
  | Restore of { round : int; warm : bool }
      (** the system came back up — [warm] from a verified snapshot,
          cold from reconvergence *)
  | Restore_rejected of { round : int; reason : string }
      (** a snapshot failed verification (checksum/version/decode) and
          was discarded; a cold start follows *)
  | Daemon_admit of { round : int; cls : string; conn : int }
      (** the daemon reactor admitted a request of class [cls]
          (["churn"], ["query"] or ["meas"]) from connection [conn];
          [round] is the reactor tick, the daemon's logical clock *)
  | Daemon_shed of { round : int; cls : string; reason : string }
      (** admission refused a request (["queue_full"], ["rate_limit"],
          ["pressure"] or ["draining"]); the client got a typed SHED
          response, never a silent drop *)
  | Daemon_timeout of { round : int; waited : int; deadline : int }
      (** a queued query exceeded its deadline budget before the reactor
          reached it and was answered with a typed TIMEOUT *)
  | Daemon_degrade of { round : int; entered : bool; staleness : int }
      (** the reactor entered ([entered = true]) or left degraded mode;
          while degraded, queries are served from the last consistent
          index with the given staleness bound (ticks) *)
  | Daemon_retry of { round : int; cls : string; attempt : int; due : int }
      (** a failed ingestion was scheduled for retry number [attempt]
          with jittered exponential backoff, due at tick [due] *)
  | Daemon_watchdog of { round : int; stalled : int }
      (** the watchdog fired: convergence has been stalled for [stalled]
          ticks *)

type t
(** A sink. *)

val create : ?capacity:int -> unit -> t
(** Unbounded by default; [capacity] turns the sink into a ring that
    retains only the newest [capacity] events ([capacity >= 1]). *)

val emit : t -> event -> unit

val events : t -> event list
(** Retained events, oldest first. *)

val emitted : t -> int
(** Total events ever emitted (>= [List.length (events t)] for rings). *)

val cause_to_string : drop_cause -> string

val event_to_json : event -> string
(** One canonical single-line JSON object, e.g.
    [{"ev":"drop","round":3,"msg":17,"kind":"aggregate","bytes":128,"src":0,"dst":5,"cause":"fault_loss"}]. *)

val to_jsonl : t -> string
(** Retained events as JSONL (one {!event_to_json} line per event,
    each terminated by ['\n']). *)

val of_jsonl : string -> (event list, string) result
(** Parse a whole JSONL trace (blank lines ignored).  [Error] names the
    first unparseable line. *)
