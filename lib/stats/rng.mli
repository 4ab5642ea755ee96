(** Deterministic, splittable pseudo-random number generator.

    Every stochastic component of the simulator draws from an explicit [t]
    so that experiments are reproducible from a single integer seed.  The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): fast,
    well-distributed, and trivially splittable into independent streams. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Two generators created with the
    same seed produce identical streams. *)

val split : t -> t
(** [split rng] derives a new generator whose stream is statistically
    independent of further draws from [rng].  Used to hand independent
    streams to sub-components (one per simulation round, node, ...). *)

val copy : t -> t
(** [copy rng] duplicates the current state; both copies then produce the
    same stream. *)

val state : t -> int64
(** The full internal state (SplitMix64 keeps exactly one 64-bit word), so
    a generator can be persisted and resumed mid-stream. *)

val of_state : int64 -> t
(** [of_state (state rng)] continues [rng]'s stream exactly where it
    stopped.  Unlike {!create}, the argument is {e not} a seed: it is the
    raw state word. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int rng bound] draws uniformly from [0, bound).  [bound] must be
    positive. *)

val float : t -> float -> float
(** [float rng bound] draws uniformly from [0, bound). *)

val uniform : t -> float -> float -> float
(** [uniform rng lo hi] draws uniformly from [lo, hi). *)

val bool : t -> bool

val gaussian : t -> float
(** Standard normal deviate (Box-Muller). *)

val log_normal : t -> mu:float -> sigma:float -> float
(** [log_normal rng ~mu ~sigma] is [exp (gaussian * sigma + mu)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation rng n] is a uniformly random permutation of [0..n-1]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement rng m n] draws [m] distinct values from
    [0..n-1], in random order.  Requires [m <= n]. *)
