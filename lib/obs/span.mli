(** Opt-in wall-clock span timers for profiling hot paths.

    This is the {e only} library module allowed to read the wall clock
    (enforced by the [no-wall-clock-in-lib] bwclint rule): spans exist
    for harnesses like [bench/main.ml] to attribute real time to
    Algorithm 1, tree construction and aggregation.  Wall time is
    inherently nondeterministic, so span readings must never feed
    {!Registry} metrics or {!Trace} events — keep them in
    benchmark-only reporting. *)

type t

val create : string -> t
(** A named span accumulator, initially empty. *)

val name : t -> string

val time : t -> (unit -> 'a) -> 'a
(** [time span f] runs [f ()] and charges its wall-clock duration to
    the span (also on exception). *)

val total_s : t -> float
(** Accumulated wall-clock seconds. *)

val mean_s : t -> float
(** [total_s / count]; 0 when never timed. *)

val pp : Format.formatter -> t -> unit
(** [name: total count mean max] with human units. *)
