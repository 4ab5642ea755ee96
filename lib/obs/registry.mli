(** Deterministic metrics registry.

    Named counters, gauges and log-bucketed histograms, optionally
    carrying labels ([engine.drops{cause=fault_loss}]).  Instrumented
    components resolve a handle once at construction time and bump it on
    the hot path; experiments and the CLI take {!snapshot}s and render
    them as text or JSON.

    Determinism contract: a registry never reads the clock and never
    draws randomness — every value is a pure function of the
    instrumented run, and {!snapshot}, {!pp_text} and {!to_json} order
    metrics by (name, labels), so same-seed runs render byte-identical
    reports.  Wall-clock profiling lives in {!Span} and is kept out of
    the registry. *)

type t

type labels = (string * string) list
(** Label pairs; order is irrelevant (normalized by sorting). *)

val create : unit -> t

(** {2 Handles}

    [counter]/[gauge]/[histogram] get-or-create: the same (name, labels)
    always returns the same handle, and re-registering a name with a
    different metric type raises [Invalid_argument]. *)

module Counter : sig
  type t

  val incr : ?by:int -> t -> unit
  (** Monotone; negative [by] raises [Invalid_argument]. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  val add : t -> int -> unit
end

module Histogram : sig
  type t

  val observe : t -> int -> unit
  (** Records a non-negative sample into log2 buckets: bucket 0 holds
      the value 0, bucket [i >= 1] holds values in [[2^(i-1), 2^i)].
      Negative samples raise [Invalid_argument]. *)

  val bucket_bounds : int -> int * int
  (** [bucket_bounds i] is the inclusive [(lo, hi)] value range of
      bucket [i]. *)
end

val counter : t -> ?labels:labels -> string -> Counter.t
val gauge : t -> ?labels:labels -> string -> Gauge.t
val histogram : t -> ?labels:labels -> string -> Histogram.t

(** {2 Snapshots} *)

type sample =
  | Counter of int
  | Gauge of int
  | Histogram of {
      count : int;
      sum : int;
      max_value : int;
      buckets : (int * int) list;  (** (bucket index, count), ascending, non-empty only *)
    }

type snapshot = (string * labels * sample) list
(** Sorted by (name, labels). *)

val snapshot : t -> snapshot

(* bwclint: allow test-only-export -- test/test_obs.ml (registry diff and reset) is the only caller; deleting it with that test is queued on ROADMAP *)
val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-metric change from [before] to [after]: counters and histogram
    counts/sums/buckets subtract; gauges and histogram [max_value] keep
    the [after] value (a max cannot be un-observed).  Metrics absent
    from [before] appear unchanged; metrics absent from [after] are
    dropped. *)

(* bwclint: allow test-only-export -- test/test_obs.ml (registry diff and reset) is the only caller; deleting it with that test is queued on ROADMAP *)
val reset : t -> unit
(** Zeroes every registered metric in place (handles stay valid). *)

val find : snapshot -> ?labels:labels -> string -> sample option

val get : snapshot -> ?labels:labels -> string -> int
(** The scalar reading of a metric: counter/gauge value, histogram
    count.  0 when absent. *)

val sum_by_name : snapshot -> string -> int
(** Sum of {!get} over every label set registered under [name] — e.g.
    total [predtree.measurements] across [tree=i] labels. *)

(** {2 Rendering} *)

val to_text : snapshot -> string

val to_json : snapshot -> string
(** Canonical single-line JSON, metrics ordered as in the snapshot. *)
