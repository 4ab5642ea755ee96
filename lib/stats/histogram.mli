(** Fixed-width binned histograms, used for reporting distributions in the
    benchmark harness. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** [create ~lo ~hi ~bins] covers [[lo, hi)] with [bins] equal-width bins.
    Samples outside the range are clamped into the first/last bin. *)

val add : t -> float -> unit
val add_all : t -> float array -> unit
val bin_bounds : t -> int -> float * float
val normalized : t -> float array
(** Per-bin fraction of the total count (all zeros when empty). *)

val pp : Format.formatter -> t -> unit
(** A compact ASCII rendering, one line per bin. *)
