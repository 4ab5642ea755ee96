(** Churn schedules: scripted node joins and leaves, used by the dynamic
    clustering simulations (requirement 5 of Sec. I). *)

type event =
  | Join of int
  | Leave of int

type t

val scripted : (int * event) list -> t
(** [(round, event)] pairs; rounds need not be sorted. *)

val random :
  rng:Bwc_stats.Rng.t -> n:int -> rounds:int -> leave_prob:float -> rejoin_prob:float -> t
(** Per-round: each currently-up node leaves with [leave_prob]; each
    currently-down node rejoins with [rejoin_prob].  Node 0 never leaves
    (it is the overlay root). *)

val events_at : t -> int -> event list
val all_events : t -> (int * event) list
(** Sorted by round. *)
