(** E5 — Fig. 6: scalability of query routing.

    Random sub-datasets of increasing size [n] each get a fresh
    decentralized system; queries with [k] between 5% and 30% of [n]
    are submitted at random hosts and the mean number of routing hops is
    reported per [n].  The paper's qualitative result: hop counts are
    small (around 2-3) and grow slowly and concavely with [n]. *)

type row = {
  n : int;
  avg_hops : float;   (** over answered queries *)
  max_hops : int;
  rr : float;
  queries : int;
}

type output = {
  base_dataset : string;
  rows : row list; (** ascending n *)
}

val run :
  ?sizes:int list -> ?subsets_per_size:int -> ?queries_per_subset:int ->
  ?rounds:int -> seed:int -> Bwc_dataset.Dataset.t -> output
(** Draws subsets from the given base dataset (the paper uses
    UMD-PlanetLab, sizes 50-300, 10 subsets each, 1000 queries, 10
    rounds; defaults here: sizes 50-250 step 50, 2 subsets, 100 queries,
    1 round). *)

val print : output -> unit

val save_csv : output -> string -> unit

(** {2 E14 — incremental index maintenance under churn}

    A fixed tree-metric universe per size [n]; membership churns through
    random joins and leaves.  The maintained
    {!Bwc_core.Find_cluster.Index} absorbs each event as an O(n^2) delta,
    and after every event random [(k, l)] probes re-verify each
    [Index.find] witness against the raw distances ([k] distinct current
    members, anchor pair within [l], every member inside the anchors'
    ball).  At [n <= 256] a second arm rebuilds the index from scratch
    at O(n^3) per event (intractable past a few hundred points, which is
    why it is size-gated); both arms are timed (via
    {!Bwc_obs.Span}) and every probe is differentially compared against
    the rebuild.  Any divergence or failed witness is a correctness bug;
    the timing ratio is the speedup the dynamic hot path gains from
    incremental maintenance. *)

type churn_row = {
  cn : int;              (** universe size *)
  events : int;          (** membership events applied *)
  incremental_s : float; (** wall seconds spent applying deltas *)
  rebuild_s : float;     (** wall seconds spent rebuilding per event (0 when arm off) *)
  speedup : float;       (** [rebuild_s /. incremental_s]; 0 when no rebuild arm *)
  checks : int;          (** probes *)
  divergence : int;      (** failed witnesses plus rebuild disagreements — must be 0 *)
  exact_arm : string;    (** ["full+rebuild"] or ["full"] *)
}

val churn_sweep :
  ?sizes:int list -> ?events_per_size:int -> seed:int -> unit -> churn_row list
(** Defaults: sizes 64/128/256, 16 events per size, 4 probes per event.
    Rows ascend in [n]. *)

val churn_gate : churn_row list -> string list
(** The acceptance gate: one failure line giving the total of failed
    witnesses and disagreements across the sweep, or [[]]. *)

val print_churn : churn_row list -> unit

val churn_to_json : churn_row list -> seed:int -> string
(** The sweep as JSON ([BENCH_index.json] schema, {!Bwc_json.to_rows}
    layout; see EXPERIMENTS.md E14). *)
