(** A discrete-event priority queue (binary heap on time, FIFO within equal
    timestamps).  The round-based {!Engine} covers the paper's
    cycle-driven simulations; this queue backs the latency-aware query
    simulations and churn schedules. *)

type 'a t

(* bwclint: allow test-only-export -- test/test_sim.ml (event_queue tests) is the only caller; deleting the module with its five tests is queued on ROADMAP *)
val create : unit -> 'a t
(* bwclint: allow test-only-export -- test/test_sim.ml (event_queue tests) is the only caller; deleting the module with its five tests is queued on ROADMAP *)
val is_empty : 'a t -> bool
(* bwclint: allow test-only-export -- test/test_sim.ml (event_queue tests) is the only caller; deleting the module with its five tests is queued on ROADMAP *)
val size : 'a t -> int

val add : 'a t -> time:float -> 'a -> unit
(** [time] must be non-negative. *)

val pop : 'a t -> (float * 'a) option
(** Earliest event; ties resolve in insertion order. *)

(* bwclint: allow test-only-export -- test/test_sim.ml (event_queue tests) is the only caller; deleting the module with its five tests is queued on ROADMAP *)
val drain_until : 'a t -> time:float -> (float * 'a) list
(** Removes and returns every event with timestamp [<= time], in order. *)
