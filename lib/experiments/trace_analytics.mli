(** E16 — causal trace analytics over the standard fault scenarios.

    Reruns the E12-style faulty run and the E13-style crash-recovery run
    (plus a clean baseline) with an unbounded trace sink attached, then
    reconstructs happens-before and the convergence critical path with
    {!Bwc_obs.Causal}.  Each row reports how much of the run the witness
    chain explains ([frac_explained]) and the per-kind byte budget; the
    [send_sum_matches] column asserts the exact-attribution invariant:
    the non-query send counts in the by-kind table sum to the engine's
    own [msgs_sent] counter, message for message. *)

type kind_row = {
  kind : string;  (** canonical kind name ({!Bwc_obs.Trace.all_kinds} order) *)
  sends : int;
  bytes : int;
  delivered : int;
  dropped : int;
}

type row = {
  scenario : string;  (** ["clean"], ["faulty"] or ["recovery"] *)
  rounds : int;
  messages : int;  (** engine-level sends observed in the trace *)
  delivered : int;
  dropped : int;
  query_hops : int;
  total_bytes : int;
  cp_len : int;  (** hops on the critical path *)
  cp_rounds : int;  (** rounds the critical path spans *)
  frac_explained : float;
      (** [cp_rounds] over the quiesce round: the fraction of the
          convergence time the witness chain accounts for *)
  cp_kinds : string;  (** ["-"]-joined kind chain of the witness path *)
  send_sum_matches : bool;  (** non-query kind sends = engine msgs_sent *)
  kinds : kind_row list;
}

type output = { dataset : string; n : int; seed : int; rows : row list }

val recovery_events :
  ?victims:int -> ?queries:int -> seed:int -> Bwc_dataset.Dataset.t ->
  Bwc_obs.Trace.event list * int
(** The E13-style recovery scenario on its own: detector-watched system
    ({!Robustness.build_system}, round cap 400), [victims] non-adjacent
    crashes after convergence, healed to quiescence, then the seeded
    query stream.  Returns the full event list and the engine's final
    [msgs_sent] counter (for the exact-sum check).  This is the default
    scenario behind [bwcluster analyze]. *)

val run : ?victims:int -> ?queries:int -> seed:int -> Bwc_dataset.Dataset.t -> output
(** Same seed conventions as {!Robustness}: ensemble [seed+1], protocol
    [seed+2], query stream [seed+3], fault plan [seed+7], victim choice
    [seed+11] — so the scenarios here line up with E12/E13 runs on the
    same seed.  The faulty scenario drops 10% of messages, duplicates 5%
    and jitters them by up to one round. *)

val print : output -> unit
val save_csv : output -> string -> unit
val save_kinds_csv : output -> string -> unit
(** Long-format per-(scenario, kind) attribution table. *)

val gate : output -> string list
(** Failure messages, empty when every scenario's per-kind send
    attribution sums exactly to the engine's send counter. *)
