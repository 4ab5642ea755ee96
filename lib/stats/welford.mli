(** Online mean/variance accumulation (Welford's algorithm), used by
    long-running simulation observers that cannot afford to retain every
    sample. *)

type t

(* bwclint: allow test-only-export -- test/test_stats.ml (welford tests) is the only caller; deleting the module with its three tests is queued on ROADMAP *)
val create : unit -> t
val add : t -> float -> unit
(* bwclint: allow test-only-export -- test/test_stats.ml (welford tests) is the only caller; deleting the module with its three tests is queued on ROADMAP *)
val mean : t -> float
(** [0.] when empty. *)

(* bwclint: allow test-only-export -- test/test_stats.ml (welford tests) is the only caller; deleting the module with its three tests is queued on ROADMAP *)
val variance : t -> float
(** Unbiased sample variance; [0.] for fewer than two samples. *)

(* bwclint: allow test-only-export -- test/test_stats.ml (welford tests) is the only caller; deleting the module with its three tests is queued on ROADMAP *)
val merge : t -> t -> t
(** Combines two accumulators as if all samples had been added to one. *)
